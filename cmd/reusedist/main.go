// Command reusedist runs the paper's Fig. 6 reuse-distance model on a
// synthetic trace and prints the Fig. 7 characterization: the distance
// histogram, fully-associative hit rates at the cache capacities, and the
// cold-miss fraction.
//
// Usage:
//
//	reusedist -hotness low -cores 24            # paper's Fig. 7 setup
//	reusedist -hotness high -dim 128 -cores 1   # single-core view
package main

import (
	"flag"
	"fmt"
	"os"

	"dlrmsim/internal/platform"
	"dlrmsim/internal/reuse"
	"dlrmsim/internal/trace"
)

func main() {
	var (
		hotness = flag.String("hotness", "medium", "one-item | high | medium | low | random")
		rows    = flag.Int("rows", 125_000, "rows per embedding table")
		tables  = flag.Int("tables", 8, "number of tables")
		batch   = flag.Int("batch", 64, "batch size")
		lookups = flag.Int("lookups", 120, "lookups per sample")
		cores   = flag.Int("cores", 24, "concurrently executing cores (interleaved streams)")
		dim     = flag.Int("dim", 128, "embedding dimension")
		seed    = flag.Uint64("seed", 1, "random seed")
		hist    = flag.Bool("hist", false, "print the log2 distance histogram")
	)
	flag.Parse()

	h, err := trace.ParseHotness(*hotness)
	if err != nil {
		fatal(err)
	}
	ds, err := trace.NewDataset(trace.Config{
		Hotness: h, Rows: *rows, Tables: *tables,
		BatchSize: *batch, LookupsPerSample: *lookups, Batches: *cores, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	cpu := platform.CascadeLake()
	res, err := reuse.Run(ds, reuse.ModelConfig{
		EmbeddingDim: *dim,
		Cores:        *cores,
		CacheBytes:   []int64{cpu.Mem.L1.SizeBytes, cpu.Mem.L2.SizeBytes, cpu.Mem.L3.SizeBytes},
		CacheNames:   []string{"L1D", "L2", "L3"},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset=%v tables=%d rows=%d cores=%d dim=%d accesses=%d\n",
		h, *tables, *rows, *cores, *dim, res.Accesses)
	for _, name := range []string{"L1D", "L2", "L3"} {
		fmt.Printf("%-4s capacity=%6d vectors  hit rate=%6.2f%%\n",
			name, res.VectorCapacity[name], 100*res.HitRates[name])
	}
	fmt.Printf("cold misses: %.2f%% of accesses\n", 100*res.ColdMissFraction)
	fmt.Printf("mean finite reuse distance: %.0f vectors\n", res.MeanDistance)
	if *hist {
		fmt.Println("\nreuse-distance histogram (log2 buckets):")
		for _, b := range res.Hist.NonEmptyBuckets() {
			if b.Lo < 0 {
				fmt.Printf("  cold        %12d\n", b.Count)
				continue
			}
			fmt.Printf("  [%8d, %8d] %12d\n", b.Lo, b.Hi, b.Count)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reusedist:", err)
	os.Exit(1)
}
