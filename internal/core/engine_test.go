package core

import (
	"testing"

	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/trace"
)

// testOptions returns a heavily scaled-down rm2_1 on few cores so the
// whole scheme matrix runs in seconds.
func testOptions(s Scheme, h trace.Hotness) Options {
	return Options{
		Model:               dlrm.RM2Small().Scaled(10), // 6 tables, 12 lookups, 100K rows
		Hotness:             h,
		Scheme:              s,
		BatchSize:           16,
		Cores:               2,
		Seed:                1,
		BandwidthIterations: 2,
	}
}

func mustRun(t *testing.T, o Options) Report {
	t.Helper()
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunBaselineProducesSaneReport(t *testing.T) {
	rep := mustRun(t, testOptions(Baseline, trace.LowHot))
	if rep.BatchLatencyCycles <= 0 || rep.BatchLatencyMs <= 0 {
		t.Fatalf("latency = %g cyc / %g ms", rep.BatchLatencyCycles, rep.BatchLatencyMs)
	}
	if rep.L1HitRate <= 0 || rep.L1HitRate > 1 {
		t.Fatalf("L1 hit rate = %g", rep.L1HitRate)
	}
	if rep.StageCycles[StageEmbedding] <= 0 {
		t.Fatal("missing embedding stage time")
	}
	if rep.StageCycles[StageBottom] <= 0 || rep.StageCycles[StageTop] <= 0 {
		t.Fatalf("missing MLP stages: %+v", rep.StageCycles)
	}
	if rep.ThroughputBatchesPerSec <= 0 {
		t.Fatal("missing throughput")
	}
}

func TestEmbeddingDominatesRM2(t *testing.T) {
	rep := mustRun(t, testOptions(Baseline, trace.MediumHot))
	emb := rep.StageCycles[StageEmbedding]
	total := rep.BatchLatencyCycles
	if frac := emb / total; frac < 0.6 {
		t.Fatalf("embedding fraction = %.2f, RM2 should be embedding-heavy", frac)
	}
}

func TestSWPFBeatsBaseline(t *testing.T) {
	for _, h := range []trace.Hotness{trace.LowHot, trace.MediumHot} {
		base := mustRun(t, testOptions(Baseline, h))
		swpf := mustRun(t, testOptions(SWPF, h))
		sp := swpf.Speedup(base)
		if sp <= 1.0 {
			t.Errorf("%v: SW-PF speedup = %.3f, want > 1", h, sp)
		}
		if sp > 2.5 {
			t.Errorf("%v: SW-PF speedup = %.3f, implausibly high", h, sp)
		}
	}
}

func TestSWPFImprovesL1HitRateAndLoadLatency(t *testing.T) {
	base := mustRun(t, testOptions(Baseline, trace.LowHot))
	swpf := mustRun(t, testOptions(SWPF, trace.LowHot))
	if swpf.L1HitRate <= base.L1HitRate {
		t.Fatalf("L1 hit rate: baseline %.3f, SW-PF %.3f", base.L1HitRate, swpf.L1HitRate)
	}
	if swpf.AvgLoadLatency >= base.AvgLoadLatency {
		t.Fatalf("load latency: baseline %.1f, SW-PF %.1f", base.AvgLoadLatency, swpf.AvgLoadLatency)
	}
	if swpf.SWPrefetches == 0 {
		t.Fatal("SW-PF issued no prefetches")
	}
	if base.SWPrefetches != 0 {
		t.Fatal("baseline issued software prefetches")
	}
}

func TestMPHTBeatsBaseline(t *testing.T) {
	base := mustRun(t, testOptions(Baseline, trace.HighHot))
	mpht := mustRun(t, testOptions(MPHT, trace.HighHot))
	if sp := mpht.Speedup(base); sp <= 1.0 {
		t.Fatalf("MP-HT speedup = %.3f, want > 1", sp)
	}
}

func TestDPHTHurtsLatencyButHelpsThroughput(t *testing.T) {
	base := mustRun(t, testOptions(Baseline, trace.MediumHot))
	dpht := mustRun(t, testOptions(DPHT, trace.MediumHot))
	if sp := dpht.Speedup(base); sp >= 1.0 {
		t.Fatalf("DP-HT latency speedup = %.3f, should be < 1", sp)
	}
	if dpht.ThroughputBatchesPerSec <= base.ThroughputBatchesPerSec {
		t.Fatalf("DP-HT throughput %.2f <= baseline %.2f",
			dpht.ThroughputBatchesPerSec, base.ThroughputBatchesPerSec)
	}
}

func TestIntegratedIsBest(t *testing.T) {
	base := mustRun(t, testOptions(Baseline, trace.LowHot))
	swpf := mustRun(t, testOptions(SWPF, trace.LowHot))
	mpht := mustRun(t, testOptions(MPHT, trace.LowHot))
	integ := mustRun(t, testOptions(Integrated, trace.LowHot))
	spI := integ.Speedup(base)
	if spI <= swpf.Speedup(base) {
		t.Fatalf("Integrated (%.3f) should beat SW-PF (%.3f)", spI, swpf.Speedup(base))
	}
	if spI <= mpht.Speedup(base) {
		t.Fatalf("Integrated (%.3f) should beat MP-HT (%.3f)", spI, mpht.Speedup(base))
	}
}

func TestEmbeddingOnlyMode(t *testing.T) {
	o := testOptions(SWPF, trace.LowHot)
	o.EmbeddingOnly = true
	rep := mustRun(t, o)
	if _, ok := rep.StageCycles[StageBottom]; ok {
		t.Fatal("embedding-only run executed the bottom MLP")
	}
	if rep.EmbeddingStageCycles() <= 0 {
		t.Fatal("missing embedding time")
	}
}

func TestEmbeddingOnlyRejectsSMTSchemes(t *testing.T) {
	o := testOptions(MPHT, trace.LowHot)
	o.EmbeddingOnly = true
	if _, err := Run(o); err == nil {
		t.Fatal("accepted embedding-only MP-HT")
	}
}

func TestHotnessOrdersLatency(t *testing.T) {
	hi := mustRun(t, testOptions(Baseline, trace.HighHot))
	lo := mustRun(t, testOptions(Baseline, trace.LowHot))
	if hi.BatchLatencyCycles >= lo.BatchLatencyCycles {
		t.Fatalf("high hot (%.0f) should be faster than low hot (%.0f)",
			hi.BatchLatencyCycles, lo.BatchLatencyCycles)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := mustRun(t, testOptions(SWPF, trace.MediumHot))
	b := mustRun(t, testOptions(SWPF, trace.MediumHot))
	if a.BatchLatencyCycles != b.BatchLatencyCycles || a.DRAMBytes != b.DRAMBytes {
		t.Fatalf("nondeterministic: %g/%d vs %g/%d",
			a.BatchLatencyCycles, a.DRAMBytes, b.BatchLatencyCycles, b.DRAMBytes)
	}
}

func TestRunRejectsTooManyCores(t *testing.T) {
	o := testOptions(Baseline, trace.LowHot)
	o.Cores = 1000
	if _, err := Run(o); err == nil {
		t.Fatal("accepted 1000 cores")
	}
}

func TestDefaultPrefetchFromPlatform(t *testing.T) {
	o, err := testOptions(SWPF, trace.LowHot).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if o.Prefetch.Dist != o.CPU.TunedPFDist || o.Prefetch.Blocks != o.CPU.TunedPFBlocks {
		t.Fatalf("prefetch defaults = %+v", o.Prefetch)
	}
}

func TestSchemeStringsAndParse(t *testing.T) {
	for _, s := range AllSchemes {
		if s.String() == "invalid" {
			t.Fatalf("scheme %d unnamed", s)
		}
	}
	for _, name := range []string{"baseline", "nohwpf", "swpf", "dpht", "mpht", "integrated"} {
		if _, err := ParseScheme(name); err != nil {
			t.Fatalf("ParseScheme(%q): %v", name, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("accepted bogus scheme")
	}
}

func TestExplicitPrefetchOverride(t *testing.T) {
	o := testOptions(SWPF, trace.LowHot)
	o.Prefetch = embedding.PrefetchConfig{Dist: 2, Blocks: 1}
	rep := mustRun(t, o)
	if rep.SWPrefetches == 0 {
		t.Fatal("override disabled prefetching")
	}
}

func TestDLRMConfigInteractionStrings(t *testing.T) {
	for _, k := range []dlrm.InteractionKind{dlrm.DotInteraction, dlrm.CrossInteraction, dlrm.ConcatInteraction} {
		if k.String() == "invalid" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if dlrm.InteractionKind(9).String() != "invalid" {
		t.Fatal("bad kind not flagged")
	}
}
