// Custom model: define a DLRM architecture that is not in the paper's
// Table 2 — a wide-and-shallow ranking model — generate a trace for it,
// inspect its stage breakdown, and check which of the paper's designs
// helps it most. This is the workflow a practitioner would follow to
// decide whether to adopt Algorithm 3 / MP-HT for their own model.
//
// Run with: go run ./examples/custom_model
package main

import (
	"fmt"
	"log"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/reuse"
	"dlrmsim/internal/trace"
)

func main() {
	// A hypothetical "wide" model: few, very tall tables, shallow MLPs.
	cfg := dlrm.Config{
		Name: "wide-rank", Class: "custom",
		Tables: 8, RowsPerTable: 400_000, EmbDim: 64, LookupsPerSample: 40,
		BottomMLP:   []int{512, 64},
		TopMLP:      []int{256, 1},
		SLATargetMs: 100,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom model %q: %.2f GB of embeddings, %d-deep bottom MLP\n\n",
		cfg.Name, float64(cfg.EmbeddingBytes())/1e9, len(cfg.BottomMLP))

	// 1. Will caches hold its working set? Ask the reuse-distance model.
	cpu := platform.CascadeLake()
	ds, err := trace.NewDataset(trace.Config{
		Hotness: trace.MediumHot, Rows: cfg.RowsPerTable, Tables: cfg.Tables,
		BatchSize: 64, LookupsPerSample: cfg.LookupsPerSample, Batches: 4, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	ru, err := reuse.Run(ds, reuse.ModelConfig{
		EmbeddingDim: cfg.EmbDim, Cores: 4,
		Caches: []memsim.CacheConfig{cpu.Mem.L1, cpu.Mem.L2, cpu.Mem.L3},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reuse model: L1D %.1f%%, L2 %.1f%%, L3 %.1f%% hit; %.1f%% cold misses\n",
		100*ru.HitRates["L1D"], 100*ru.HitRates["L2"], 100*ru.HitRates["L3"],
		100*ru.ColdMissFraction)

	// 2. Stage breakdown under the baseline.
	bl, err := core.Run(core.Options{
		Model: cfg, Hotness: trace.MediumHot, Scheme: core.Baseline, Cores: 4, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}
	total := bl.BatchLatencyCycles
	fmt.Printf("\nbaseline batch latency: %.3f ms\n", bl.BatchLatencyMs)
	for _, st := range []string{core.StageEmbedding, core.StageBottom, core.StageTop} {
		fmt.Printf("  %-22s %5.1f%%\n", st, 100*bl.StageCycles[st]/total)
	}

	// 3. Which design helps this model most?
	fmt.Println("\ndesign comparison:")
	bestName, bestSpd := "", 0.0
	for _, s := range []core.Scheme{core.SWPF, core.MPHT, core.Integrated} {
		rep, err := core.Run(core.Options{
			Model: cfg, Hotness: trace.MediumHot, Scheme: s, Cores: 4, Seed: 9,
		})
		if err != nil {
			log.Fatal(err)
		}
		spd := rep.Speedup(bl)
		fmt.Printf("  %-11s %.2fx\n", s, spd)
		if spd > bestSpd {
			bestName, bestSpd = s.String(), spd
		}
	}
	fmt.Printf("\nrecommendation: deploy %s (%.2fx) for %q\n", bestName, bestSpd, cfg.Name)
}
