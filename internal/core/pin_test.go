package core

import (
	"testing"

	"dlrmsim/internal/embedding"
	"dlrmsim/internal/pin"
	"dlrmsim/internal/trace"
)

// TestEngineReportsPinned pins every Report field bit-for-bit for each
// design point on testOptions(scheme, MediumHot), full and ("/emb")
// embedding-only, in testdata/engine_reports.pin. The goldens hold a few
// fields to 1e-9; this is the tier-1 guard that a change to cpusim's
// driver, its DRAM fixed point or the engine's free list of Systems,
// each reshaped in place for the cell it serves, leaves engine output
// exactly where it was. A failure names each moved field,
// old → new; make golden-update re-pins a deliberate change.
func TestEngineReportsPinned(t *testing.T) {
	got := map[string]Report{}
	for _, s := range AllSchemes {
		for _, embOnly := range []bool{false, true} {
			if embOnly && s.UsesSMT() {
				continue
			}
			name := s.String()
			if embOnly {
				name += "/emb"
			}
			o := testOptions(s, trace.MediumHot)
			o.EmbeddingOnly = embOnly
			r := mustRun(t, o)
			checkSingleSocket(t, name, r)
			got[name] = r
		}
	}
	pin.Check(t, "engine_reports", got)
}

// checkSingleSocket asserts what one socket implies: no fill is remote and
// the one per-socket bandwidth entry is the node's.
func checkSingleSocket(t *testing.T, name string, r Report) {
	t.Helper()
	if r.RemoteFillFraction != 0 {
		t.Errorf("%s: one socket, remote fill fraction %g", name, r.RemoteFillFraction)
	}
	if len(r.SocketBandwidthGBs) != 1 || r.SocketBandwidthGBs[0] != r.BandwidthGBs {
		t.Errorf("%s: one socket, socket bandwidth %v, node bandwidth %g", name, r.SocketBandwidthGBs, r.BandwidthGBs)
	}
}

// TestRunNUMAPinned pins every Report field bit-for-bit, in
// testdata/numa_reports.pin keyed "<placement>/<prefetch>", for ext4's
// three placements with and without SW-PF, on the default fixed-point
// budget and the default interconnect penalty.
func TestRunNUMAPinned(t *testing.T) {
	placements := []struct {
		name                 string
		sockets, activeCores int
	}{
		{"pinned", 1, 2},
		{"interleaved", 2, 2},
		{"spread", 2, 4},
	}
	got := map[string]Report{}
	for _, pl := range placements {
		for _, pf := range []embedding.PrefetchConfig{{}, {Dist: 4, Blocks: 8}} {
			o := withPrefetch(numaOpts(), pf)
			o.Sockets, o.ActiveCores = pl.sockets, pl.activeCores
			o.BandwidthIterations = 0
			r := mustRun(t, o)
			name := pl.name + "/off"
			if pf.Enabled() {
				name = pl.name + "/swpf"
			}
			if pl.sockets == 1 {
				checkSingleSocket(t, name, r)
			}
			got[name] = r
		}
	}
	pin.Check(t, "numa_reports", got)
}
