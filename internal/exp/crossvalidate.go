package exp

import (
	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/reuse"
	"dlrmsim/internal/trace"
)

func init() {
	register(Experiment{ID: "ext7", Title: "Reuse-distance model vs simulated execution (§3.1.2 cross-validation)", Run: runExt7})
}

// runExt7 cross-validates the paper's two characterization methodologies
// against each other. §3.1.2 argues for an analytical reuse-distance
// model over instrumenting a real run (speed, core-count flexibility) —
// we have both: the Fig. 6 model's predicted hit rates (fully-associative
// caches, row-vector granularity, embedding rows only) next to the cache
// hit rates the execution-driven simulator observes (set-associative
// caches, every load: rows, accumulators, indices, MLP-free embedding-
// only runs).
//
// The two agree on ordering and rough magnitude but differ where their
// assumptions differ — accumulator traffic inflates the execution L1D hit
// rate, set conflicts depress L2/L3 versus the fully-associative model —
// exactly the gap the paper accepts when it chooses the model.
func runExt7(x *Context) (*Table, error) {
	t := &Table{
		ID: "ext7", Title: "Fig. 6 model vs execution-driven simulation (rm2_1)",
		Headers: []string{"dataset", "method", "L1D hit", "L2 hit", "L3 hit"},
	}
	m := x.Cfg.model(dlrm.RM2Small())
	cpu := platform.CascadeLake()
	cores := x.Cfg.multiCores(cpu)
	if cores > 8 {
		cores = 8
	}
	for _, h := range trace.ProductionHotness {
		ds, err := trace.NewDataset(trace.Config{
			Hotness: h, Rows: m.RowsPerTable, Tables: m.Tables,
			BatchSize: x.Cfg.BatchSize, LookupsPerSample: m.LookupsPerSample,
			Batches: cores, Seed: x.Cfg.Seed ^ 0xDA7A,
		})
		if err != nil {
			return nil, err
		}
		model, err := reuse.Run(ds, reuse.ModelConfig{
			EmbeddingDim: m.EmbDim,
			Cores:        cores,
			Caches:       []memsim.CacheConfig{cpu.Mem.L1, cpu.Mem.L2, cpu.Mem.L3},
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(h.String(), "reuse model", pct(model.HitRates["L1D"]),
			pct(model.HitRates["L2"]), pct(model.HitRates["L3"]))
		exec, err := x.Run(core.Options{
			Model: m, Hotness: h, Scheme: core.Baseline,
			Cores: cores, EmbeddingOnly: true,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(h.String(), "execution sim", pct(exec.L1HitRate),
			pct(exec.L2HitRate), pct(exec.L3HitRate))
	}
	t.AddNote("same trace, two methods; divergences are the model's documented approximations: execution L1D is inflated by accumulator/index traffic the model excludes, and the model's rates are GLOBAL (all accesses) while the execution's L2/L3 rates are LOCAL (only the upper level's misses arrive), which is why execution L3 looks low on hot traces")
	return t, nil
}
