package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dlrmsim/internal/embedding"
	"dlrmsim/internal/trace"
)

// digest is the SHA-256 of fmt.Sprintf("%+v", v). %v prints every float
// in its shortest round-trip form and sorts map keys, so equal digests
// mean bit-identical fields.
func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", v))))
}

// pinnedReport copies the Report field list the engineReportPins digests
// were taken over. %+v prints no type name, so hashing this projection
// keeps the pins byte-stable when Report gains fields.
type pinnedReport struct {
	Scheme    Scheme
	ModelName string
	CPUName   string
	Hotness   trace.Hotness

	BatchLatencyCycles      float64
	BatchLatencyMs          float64
	ThroughputBatchesPerSec float64
	StageCycles             map[string]float64

	AvgLoadLatency       float64
	L1HitRate            float64
	L2HitRate            float64
	L3HitRate            float64
	DRAMBytes            uint64
	BandwidthGBs         float64
	BandwidthUtilization float64
	SWPrefetches         uint64
}

func pinReport(r Report) pinnedReport {
	return pinnedReport{
		Scheme: r.Scheme, ModelName: r.ModelName, CPUName: r.CPUName, Hotness: r.Hotness,
		BatchLatencyCycles:      r.BatchLatencyCycles,
		BatchLatencyMs:          r.BatchLatencyMs,
		ThroughputBatchesPerSec: r.ThroughputBatchesPerSec,
		StageCycles:             r.StageCycles,
		AvgLoadLatency:          r.AvgLoadLatency,
		L1HitRate:               r.L1HitRate,
		L2HitRate:               r.L2HitRate,
		L3HitRate:               r.L3HitRate,
		DRAMBytes:               r.DRAMBytes,
		BandwidthGBs:            r.BandwidthGBs,
		BandwidthUtilization:    r.BandwidthUtilization,
		SWPrefetches:            r.SWPrefetches,
	}
}

// engineReportPins holds the digest of each scheme's Report on
// testOptions(scheme, MediumHot), full and ("/emb") embedding-only.
var engineReportPins = map[string]string{
	"w/o HW-PF":     "0419e21b73535fc63dfeb410f3445d50edd4799b67ef85659c52ec54d683467a",
	"w/o HW-PF/emb": "c8c6353f9008fdcaf9b00417d54452e7e6cef84f1b4e06ef73c300642c2492ad",
	"baseline":      "36eab4f72dc89a1743d7d2e1afc3b0e67e8daa3bf7a3264cd50f29d8708b9dd6",
	"baseline/emb":  "d58a2de6c4fd60f47d268d5392f031f0e085d9063ec591a7f507e63ac6ba7dde",
	"SW-PF":         "1c9b92d725abf1c8efd2a1895749f680bcdb07d27d1746345cbd7b501ec2ecd5",
	"SW-PF/emb":     "75281b89d6317d8e95bdd1203e22849daf1bc6821378623b14289822cf6a7532",
	"DP-HT":         "ba5e3bcbed6400ce1d3cd2bd91dab83ac4701a4610d08e5c118ba1249f67b56c",
	"MP-HT":         "a6176afd7ab6e4e09917bb5d74371fa2f87947d1bc30a0c460d6f3e042965075",
	"Integrated":    "7714a25b8d41499a5dde6a9da740760601597afc4a8fa4f0336a9641b1e21267",
}

// TestEngineReportsPinned pins every Report field bit-for-bit for each
// design point. The goldens hold a few fields to 1e-9; this is the
// tier-1 guard that a change to cpusim's driver, its DRAM fixed point or
// the engine's System free list leaves engine output exactly where it was.
func TestEngineReportsPinned(t *testing.T) {
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
			rep := pinReport(r)
			if got, want := digest(rep), engineReportPins[name]; got != want {
				t.Errorf("%s: report digest %s, pinned %s:\n%+v", name, got, want, rep)
			}
		}
	}
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

// pinnedSocketReport copies the field list the numaReportPins digests were
// taken over: the embedding-only latency, load latency and socket fields.
type pinnedSocketReport struct {
	BatchLatencyCycles float64
	BatchLatencyMs     float64
	AvgLoadLatency     float64
	RemoteFillFraction float64
	SocketBandwidthGBs []float64
}

// numaReportPins holds the digest of each ext4 cell's pinnedSocketReport at
// test scale, keyed "<placement>/<prefetch>".
var numaReportPins = map[string]string{
	"pinned/off":       "02d5ab9af3da346ea0c9de066abb213aa653e02fc5fa74454d63caf9d4120532",
	"pinned/swpf":      "5cef376b1e2e6770927b7977ff34f093557cd89e40462ce67496f6e95e5fa9a8",
	"interleaved/off":  "8e0ea0ed9fb89238ada1ebae10f576dd743a7873e4c3b3800bdf086d375456f0",
	"interleaved/swpf": "c8817308c14f904b66c9a309445334649a2d7a0d3d8179db423f64f078854cad",
	"spread/off":       "f40cfa7a66f81205ee030d8c1003b9ff57a3c8f7ca715ced83764033728d2521",
	"spread/swpf":      "55b3cccdcd2eb53749c55cae428e5d8030f1f2d18894fe059ce4432d8fe58368",
}

// TestRunNUMAPinned pins the socket-placement fields bit-for-bit for
// ext4's three placements with and without SW-PF, on the default
// fixed-point budget and the default interconnect penalty.
func TestRunNUMAPinned(t *testing.T) {
	placements := []struct {
		name                 string
		sockets, activeCores int
	}{
		{"pinned", 1, 2},
		{"interleaved", 2, 2},
		{"spread", 2, 4},
	}
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
			rep := pinnedSocketReport{r.BatchLatencyCycles, r.BatchLatencyMs, r.AvgLoadLatency,
				r.RemoteFillFraction, r.SocketBandwidthGBs}
			if got, want := digest(rep), numaReportPins[name]; got != want {
				t.Errorf("%s: report digest %s, pinned %s:\n%+v", name, got, want, rep)
			}
		}
	}
}
