// Package-level benchmarks: one testing.B benchmark per paper artifact
// (table or figure). Each bench regenerates its artifact at a reduced
// scale and reports the artifact's headline quantity as a custom metric
// (speedups, hit rates, percentile latencies), so `go test -bench=.`
// doubles as a quick-look reproduction of the whole evaluation.
//
// The full-fidelity tables come from `go run ./cmd/dlrmbench -exp all`;
// these benches trade scale for wall-clock so the suite stays fast.
package main

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/exp"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/reuse"
	"dlrmsim/internal/serve"
	"dlrmsim/internal/trace"
)

// benchContext builds a small shared experiment context per bench run.
func benchContext() *exp.Context {
	return exp.NewContext(exp.Config{
		Scale:               20,
		BatchSize:           16,
		Batches:             1,
		Cores:               2,
		Seed:                1,
		BandwidthIterations: 2,
	})
}

// runExperiment drives one registered experiment b.N times.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := benchContext()
		if _, err := e.Run(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01Breakdown(b *testing.B)      { runExperiment(b, "fig1") }
func BenchmarkFig04DatasetSweep(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig05Hotness(b *testing.B)        { runExperiment(b, "fig5") }
func BenchmarkFig07ReuseDistance(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFig08Scaling(b *testing.B)        { runExperiment(b, "fig8") }
func BenchmarkFig10aCompilerPF(b *testing.B)    { runExperiment(b, "fig10a") }
func BenchmarkFig10bPFDistance(b *testing.B)    { runExperiment(b, "fig10b") }
func BenchmarkFig10cPFAmount(b *testing.B)      { runExperiment(b, "fig10c") }
func BenchmarkFig12EmbeddingStage(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13EndToEnd(b *testing.B)       { runExperiment(b, "fig13") }
func BenchmarkFig14MixedModel(b *testing.B)     { runExperiment(b, "fig14") }
func BenchmarkFig15L1DMetrics(b *testing.B)     { runExperiment(b, "fig15") }
func BenchmarkFig16Platforms(b *testing.B)      { runExperiment(b, "fig16") }
func BenchmarkFig17TailLatency(b *testing.B)    { runExperiment(b, "fig17") }
func BenchmarkTable4BatchTime(b *testing.B)     { runExperiment(b, "tab4") }
func BenchmarkExt1PrefetchHint(b *testing.B)    { runExperiment(b, "ext1") }
func BenchmarkExt2BatchSize(b *testing.B)       { runExperiment(b, "ext2") }
func BenchmarkExt3ReuseClasses(b *testing.B)    { runExperiment(b, "ext3") }
func BenchmarkExt4NUMAPlacement(b *testing.B)   { runExperiment(b, "ext4") }
func BenchmarkExt5Quantization(b *testing.B)    { runExperiment(b, "ext5") }
func BenchmarkExt6ModelFamilies(b *testing.B)   { runExperiment(b, "ext6") }
func BenchmarkExt7CrossValidation(b *testing.B) { runExperiment(b, "ext7") }
func BenchmarkExt8DynamicBatching(b *testing.B) { runExperiment(b, "ext8") }

// --- parallel-runner benches --------------------------------------------

// sweepIDs is a representative slice of the evaluation grid: the dense
// scheme matrices whose cells the parallel runner overlaps.
var sweepIDs = []string{"fig12", "fig13", "fig14", "fig15", "tab4"}

// BenchmarkSweepSequential times the slice on the strictly sequential
// runner path (dlrmbench -workers 1).
func BenchmarkSweepSequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAll(context.Background(), benchContext(), sweepIDs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel times the same slice on a full GOMAXPROCS pool
// and reports the wall-clock speedup over the sequential runner as a
// custom metric. The output tables are byte-identical either way (see
// internal/exp/runner_test.go); only the wall-clock moves, and only as
// far as the host's core count allows (parallel-x ≈ 1.0 on one CPU).
// It also reports the live heap after a forced GC (live-heap-MB, 10^6
// bytes), which the engine's idle Systems and their cache line arrays
// dominate, so each BENCH point records the engine's footprint.
func BenchmarkSweepParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	var seq, par time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := exp.RunAll(context.Background(), benchContext(), sweepIDs, 1); err != nil {
			b.Fatal(err)
		}
		seq += time.Since(t0)
		t0 = time.Now()
		if _, err := exp.RunAll(context.Background(), benchContext(), sweepIDs, workers); err != nil {
			b.Fatal(err)
		}
		par += time.Since(t0)
	}
	if par > 0 {
		b.ReportMetric(seq.Seconds()/par.Seconds(), "parallel-x")
	}
	b.ReportMetric(float64(workers), "workers")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/1e6, "live-heap-MB")
}

// BenchmarkEngineCells times the engine cell fan-out (exp.Context's
// RunMany) on a scheme × hotness grid, sequential vs pooled. Each
// iteration gets a fresh context, so no cell is served from the memo.
func BenchmarkEngineCells(b *testing.B) {
	var cells []core.Options
	for _, s := range []core.Scheme{core.Baseline, core.SWPF, core.MPHT, core.Integrated} {
		for _, h := range []trace.Hotness{trace.HighHot, trace.MediumHot, trace.LowHot} {
			cells = append(cells, benchOptions(s, h))
		}
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers1", 1}, {"workersAll", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := benchContext().WithParallelism(context.Background(), bc.workers)
				if _, err := x.RunMany(cells); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- headline-metric benches -------------------------------------------
// These report the reproduction's key ratios as custom metrics.

func benchOptions(s core.Scheme, h trace.Hotness) core.Options {
	return core.Options{
		Model:               dlrm.RM2Small().Scaled(16),
		Hotness:             h,
		Scheme:              s,
		BatchSize:           16,
		Cores:               2,
		Seed:                1,
		BandwidthIterations: 2,
	}
}

// BenchmarkHeadlineSpeedups reports the Fig. 13-style speedups of each
// design over baseline as custom metrics.
func BenchmarkHeadlineSpeedups(b *testing.B) {
	b.ReportAllocs()
	var base core.Report
	var err error
	speedups := map[string]float64{}
	for i := 0; i < b.N; i++ {
		base, err = core.Run(benchOptions(core.Baseline, trace.LowHot))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []core.Scheme{core.SWPF, core.MPHT, core.Integrated} {
			rep, err := core.Run(benchOptions(s, trace.LowHot))
			if err != nil {
				b.Fatal(err)
			}
			speedups[s.String()] = rep.Speedup(base)
		}
	}
	b.ReportMetric(speedups["SW-PF"], "swpf-x")
	b.ReportMetric(speedups["MP-HT"], "mpht-x")
	b.ReportMetric(speedups["Integrated"], "integrated-x")
}

// BenchmarkEmbeddingKernel measures raw simulator throughput on the
// embedding stage (simulated ops/sec of the host, not simulated time).
func BenchmarkEmbeddingKernel(b *testing.B) {
	opts := benchOptions(core.Baseline, trace.MediumHot)
	opts.EmbeddingOnly = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReuseAnalyzer measures stack-distance throughput.
func BenchmarkReuseAnalyzer(b *testing.B) {
	ds, err := trace.NewDataset(trace.Config{
		Hotness: trace.MediumHot, Rows: 50_000, Tables: 2,
		BatchSize: 16, LookupsPerSample: 20, Batches: 2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cpu := platform.CascadeLake()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := reuse.Run(ds, reuse.ModelConfig{
			EmbeddingDim: 128, Cores: 2,
			Caches: []memsim.CacheConfig{cpu.Mem.L1, cpu.Mem.L2, cpu.Mem.L3},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSimulator measures the queueing simulator's throughput
// and reports the p95 under a representative load.
func BenchmarkServeSimulator(b *testing.B) {
	b.ReportAllocs()
	var p95 float64
	for i := 0; i < b.N; i++ {
		res, err := serve.Simulate(serve.Config{
			Cores: 8, MeanArrivalMs: 1.5, ServiceMs: 10, Requests: 2000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		p95 = res.P95
	}
	b.ReportMetric(p95, "p95-ms")
}

// --- ablation benches (DESIGN.md §5 design choices) ----------------------

// BenchmarkAblationFillBuffers sweeps the shared fill-buffer budget: the
// design choice that separates prefetch-side MLP from demand-side MLP.
func BenchmarkAblationFillBuffers(b *testing.B) {
	for _, fb := range []int{8, 13, 20} {
		fb := fb
		b.Run(map[int]string{8: "fb8", 13: "fb13", 20: "fb20"}[fb], func(b *testing.B) {
			b.ReportAllocs()
			var spd float64
			for i := 0; i < b.N; i++ {
				cpu := platform.CascadeLake()
				cpu.Core.FillBuffers = fb
				if cpu.Core.DemandMLP > fb {
					cpu.Core.DemandMLP = fb
				}
				ob := benchOptions(core.Baseline, trace.LowHot)
				ob.CPU = cpu
				os := benchOptions(core.SWPF, trace.LowHot)
				os.CPU = cpu
				base, err := core.Run(ob)
				if err != nil {
					b.Fatal(err)
				}
				swpf, err := core.Run(os)
				if err != nil {
					b.Fatal(err)
				}
				spd = swpf.Speedup(base)
			}
			b.ReportMetric(spd, "swpf-x")
		})
	}
}

// BenchmarkAblationBandwidthFixedPoint compares 1 vs 3 fixed-point
// iterations of the DRAM utilization solve.
func BenchmarkAblationBandwidthFixedPoint(b *testing.B) {
	for _, iters := range []int{1, 3} {
		iters := iters
		b.Run(map[int]string{1: "iters1", 3: "iters3"}[iters], func(b *testing.B) {
			b.ReportAllocs()
			var ms float64
			for i := 0; i < b.N; i++ {
				o := benchOptions(core.Baseline, trace.LowHot)
				o.BandwidthIterations = iters
				rep, err := core.Run(o)
				if err != nil {
					b.Fatal(err)
				}
				ms = rep.BatchLatencyMs
			}
			b.ReportMetric(ms, "batch-ms")
		})
	}
}
