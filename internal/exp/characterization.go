package exp

import (
	"fmt"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/reuse"
	"dlrmsim/internal/trace"
)

func init() {
	register(Experiment{ID: "fig1", Title: "Execution time breakdown of different DLRMs", Run: runFig1})
	register(Experiment{ID: "fig4", Title: "RM2_1 embedding-stage performance across datasets", Run: runFig4})
	register(Experiment{ID: "fig5", Title: "Hot embedding access counts (sorted) in 3 datasets", Run: runFig5})
	register(Experiment{ID: "fig7", Title: "Reuse-distance study (rm2_1, 24 cores, batch 64)", Run: runFig7})
	register(Experiment{ID: "fig8", Title: "Multi-core scalability: execution time and bandwidth", Run: runFig8})
}

// runFig1 reproduces Fig. 1: per-stage shares of end-to-end time for the
// four Table 2 models on the Medium Hot trace (baseline, multi-core).
func runFig1(x *Context) (*Table, error) {
	t := &Table{
		ID: "fig1", Title: "Execution time breakdown of different DLRMs",
		Headers: []string{"model", "embedding", "bottom-MLP", "inter+top-MLP", "emb% (paper)"},
	}
	paperEmb := map[string]string{"rm2_1": "98%", "rm2_2": "96%", "rm2_3": "95%", "rm1": "65%"}
	cells := make([]core.Options, len(dlrm.Zoo()))
	for i, base := range dlrm.Zoo() {
		cells[i] = core.Options{
			Model:   x.Cfg.model(base),
			Hotness: trace.MediumHot,
			Scheme:  core.Baseline,
			Cores:   x.Cfg.multiCores(platform.CascadeLake()),
		}
	}
	reps, err := x.RunMany(cells)
	if err != nil {
		return nil, err
	}
	for i, base := range dlrm.Zoo() {
		rep := reps[i]
		emb := rep.StageCycles[core.StageEmbedding]
		bot := rep.StageCycles[core.StageBottom]
		top := rep.StageCycles[core.StageTop]
		total := emb + bot + top
		t.AddRow(base.Name, pct(emb/total), pct(bot/total), pct(top/total), paperEmb[base.Name])
	}
	t.AddNote("paper Fig. 1 / Table 2 'Execution time (Emb%%)' column gives the targets")
	return t, nil
}

// runFig4 reproduces Fig. 4: embedding-only batch latency, average load
// latency, and cache hit rates for rm2_1 across the five dataset classes.
func runFig4(x *Context) (*Table, error) {
	t := &Table{
		ID: "fig4", Title: "RM2_1 embedding-stage performance across datasets",
		Headers: []string{"dataset", "batch latency (ms)", "avg load lat (cyc)", "L1D hit", "L2 hit", "L3 hit"},
	}
	model := x.Cfg.model(dlrm.RM2Small())
	for _, h := range trace.AllHotness {
		rep, err := x.Run(core.Options{
			Model:         model,
			Hotness:       h,
			Scheme:        core.Baseline,
			Cores:         x.Cfg.multiCores(platform.CascadeLake()),
			EmbeddingOnly: true,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(h.String(), f2(rep.BatchLatencyMs), f1(rep.AvgLoadLatency),
			pct(rep.L1HitRate), pct(rep.L2HitRate), pct(rep.L3HitRate))
	}
	t.AddNote("paper: one-item is ~L1-latency bound; latency and hit rates degrade monotonically toward random")
	return t, nil
}

// runFig5 reproduces Fig. 5: sorted access-count histograms and unique
// fractions for the three production-like hotness classes.
func runFig5(x *Context) (*Table, error) {
	t := &Table{
		ID: "fig5", Title: "Hot embedding access counts (sorted)",
		Headers: []string{"dataset", "unique frac", "top-1 count", "top-10 share", "top-1% share", "accesses"},
	}
	m := x.Cfg.model(dlrm.RM2Small())
	for _, h := range trace.ProductionHotness {
		ds, err := trace.NewDataset(trace.Config{
			Hotness: h, Rows: m.RowsPerTable, Tables: 1,
			BatchSize: x.Cfg.BatchSize, LookupsPerSample: m.LookupsPerSample,
			Batches: 8, Seed: x.Cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		counts := ds.AccessCounts(0)
		total, top10, top1pct := 0, 0, 0
		for i, c := range counts {
			total += c
			if i < 10 {
				top10 += c
			}
			if i < (len(counts)+99)/100 {
				top1pct += c
			}
		}
		t.AddRow(h.String(), f3(float64(len(counts))/float64(total)), fmt.Sprintf("%d", counts[0]),
			pct(float64(top10)/float64(total)), pct(float64(top1pct)/float64(total)),
			fmt.Sprintf("%d", total))
	}
	t.AddNote("paper §5: unique accesses are 3%% / 24%% / 60%% for High/Medium/Low")
	return t, nil
}

// runFig7 reproduces Fig. 7: reuse-distance characterization per dataset —
// fully-associative hit rates at L1/L2/L3 capacities and the cold-miss
// fraction.
func runFig7(x *Context) (*Table, error) {
	t := &Table{
		ID: "fig7", Title: "Reuse distances (rm2_1 geometry, interleaved cores)",
		Headers: []string{"dataset", "L1D hit", "L2 hit", "L3 hit", "cold misses", "mean dist", "accesses"},
	}
	m := x.Cfg.model(dlrm.RM2Small())
	cpu := platform.CascadeLake()
	cores := x.Cfg.multiCores(cpu)
	for _, h := range trace.ProductionHotness {
		ds, err := trace.NewDataset(trace.Config{
			Hotness: h, Rows: m.RowsPerTable, Tables: m.Tables,
			BatchSize: x.Cfg.BatchSize, LookupsPerSample: m.LookupsPerSample,
			Batches: cores, Seed: x.Cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		res, err := reuse.Run(ds, reuse.ModelConfig{
			EmbeddingDim: m.EmbDim,
			Cores:        cores,
			Caches:       []memsim.CacheConfig{cpu.Mem.L1, cpu.Mem.L2, cpu.Mem.L3},
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(h.String(), pct(res.HitRates["L1D"]), pct(res.HitRates["L2"]),
			pct(res.HitRates["L3"]), pct(res.ColdMissFraction),
			f1(res.MeanDistance), fmt.Sprintf("%d", res.Accesses))
	}
	t.AddNote("paper: L1D hit rates are very poor; cold misses reach 72%% (Low) and ~22%% (High)")
	return t, nil
}

// runFig8 reproduces Fig. 8: embedding-stage execution time and realized
// DRAM bandwidth as core count grows (rm2_1, Medium Hot, baseline).
func runFig8(x *Context) (*Table, error) {
	t := &Table{
		ID: "fig8", Title: "Multi-core scalability (rm2_1, Medium Hot, embedding-only)",
		Headers: []string{"cores", "batch latency (ms)", "bandwidth (GB/s)", "BW util", "latency vs 1-core"},
	}
	model := x.Cfg.model(dlrm.RM2Small())
	cpu := platform.CascadeLake()
	max := x.Cfg.multiCores(cpu)
	var counts []int
	var cells []core.Options
	for _, n := range []int{1, 2, 4, 8, 16, 24} {
		if n > max {
			break
		}
		counts = append(counts, n)
		cells = append(cells, core.Options{
			Model: model, Hotness: trace.MediumHot, Scheme: core.Baseline,
			Cores: n, EmbeddingOnly: true,
		})
	}
	reps, err := x.RunMany(cells)
	if err != nil {
		return nil, err
	}
	var base float64
	for i, n := range counts {
		rep := reps[i]
		if base == 0 {
			base = rep.BatchLatencyCycles
		}
		t.AddRow(fmt.Sprintf("%d", n), f2(rep.BatchLatencyMs), f1(rep.BandwidthGBs),
			pct(rep.BandwidthUtilization), spd(rep.BatchLatencyCycles/base))
	}
	t.AddNote("paper: 1→24 cores costs only ~14%% latency while bandwidth grows ~15.5x")
	return t, nil
}
