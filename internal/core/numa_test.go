package core

import (
	"testing"

	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/trace"
)

// numaOpts is ext4's embedding-only cell at test scale: one socket of two
// cores, both active.
func numaOpts() Options {
	return Options{
		Model:               dlrm.RM2Small().Scaled(16),
		Hotness:             trace.MediumHot,
		BatchSize:           16,
		Seed:                1,
		Sockets:             1,
		Cores:               2,
		ActiveCores:         2,
		BandwidthIterations: 2,
		EmbeddingOnly:       true,
	}
}

// withPrefetch switches a numaOpts cell to SW-PF with explicit knobs.
func withPrefetch(o Options, pf embedding.PrefetchConfig) Options {
	if pf.Enabled() {
		o.Scheme, o.Prefetch = SWPF, pf
	}
	return o
}

func TestRunNUMAPinnedBaseline(t *testing.T) {
	rep := mustRun(t, numaOpts())
	if rep.BatchLatencyCycles <= 0 || rep.BatchLatencyMs <= 0 {
		t.Fatalf("latency = %g cyc / %g ms", rep.BatchLatencyCycles, rep.BatchLatencyMs)
	}
	if rep.RemoteFillFraction != 0 {
		t.Fatalf("pinned run reported %g remote fills", rep.RemoteFillFraction)
	}
	if len(rep.SocketBandwidthGBs) != 1 {
		t.Fatalf("socket BW entries = %d", len(rep.SocketBandwidthGBs))
	}
}

func TestRunNUMAInterleavedIsSlower(t *testing.T) {
	pinned := mustRun(t, numaOpts())
	o := numaOpts()
	o.Sockets = 2
	inter := mustRun(t, o)
	if inter.BatchLatencyCycles <= pinned.BatchLatencyCycles {
		t.Fatalf("interleaved (%g) not slower than pinned (%g)",
			inter.BatchLatencyCycles, pinned.BatchLatencyCycles)
	}
	if inter.RemoteFillFraction < 0.25 {
		t.Fatalf("remote fill fraction = %g, want ~0.5", inter.RemoteFillFraction)
	}
	if len(inter.SocketBandwidthGBs) != 2 {
		t.Fatalf("socket BW entries = %d", len(inter.SocketBandwidthGBs))
	}
}

func TestRunNUMAPrefetchHelpsRemote(t *testing.T) {
	o := numaOpts()
	o.Sockets = 2
	base := mustRun(t, o)
	swpf := mustRun(t, withPrefetch(o, embedding.PrefetchConfig{Dist: 4, Blocks: 8}))
	if swpf.BatchLatencyCycles >= base.BatchLatencyCycles {
		t.Fatalf("SW-PF (%g) did not help interleaved run (%g)",
			swpf.BatchLatencyCycles, base.BatchLatencyCycles)
	}
}

func TestRunNUMAValidation(t *testing.T) {
	o := numaOpts()
	o.ActiveCores = 100
	if _, err := Run(o); err == nil {
		t.Fatal("accepted more active cores than exist")
	}
	o = numaOpts()
	o.Model.Tables = 0
	if _, err := Run(o); err == nil {
		t.Fatal("accepted invalid model")
	}
}

func TestRunNUMADefaults(t *testing.T) {
	rep := mustRun(t, Options{
		Model:   dlrm.RM2Small().Scaled(20),
		Hotness: trace.HighHot,
		Seed:    2,
		// everything else defaulted: 1 socket, every core active
		Cores:         2, // keep the test fast
		EmbeddingOnly: true,
	})
	if rep.BatchLatencyCycles <= 0 {
		t.Fatal("empty report")
	}
}

func TestReportHelpers(t *testing.T) {
	a := Report{BatchLatencyCycles: 100, StageCycles: map[string]float64{StageEmbedding: 60}}
	b := Report{BatchLatencyCycles: 50, StageCycles: map[string]float64{StageSMTPair: 40}}
	if a.Speedup(b) != 0.5 {
		t.Fatalf("speedup = %g", a.Speedup(b))
	}
	if (Report{}).Speedup(a) != 0 {
		t.Fatal("zero-latency speedup should be 0")
	}
	if a.EmbeddingStageCycles() != 60 {
		t.Fatal("explicit embedding stage not used")
	}
	if b.EmbeddingStageCycles() != 40 {
		t.Fatal("SMT pair fallback not used")
	}
}
