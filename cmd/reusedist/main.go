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
	"errors"
	"flag"
	"fmt"
	"os"

	"dlrmsim/internal/memsim"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/reuse"
	"dlrmsim/internal/trace"
)

// options holds the parsed command line.
type options struct {
	hotness                                  string
	rows, tables, batch, lookups, cores, dim int
	seed                                     uint64
	hist                                     bool
}

// validate turns the flags into the trace and model configs the run uses
// and reports every bad flag at once, each by its name: the libraries
// reject a non-positive dimension too, but name neither the flag nor the
// field. -cores sets both the interleaved streams and the batches.
func (o options) validate() (trace.Config, reuse.ModelConfig, error) {
	h, err := trace.ParseHotness(o.hotness)
	errs := []error{err}
	for _, f := range []struct {
		name string
		v    int
	}{{"rows", o.rows}, {"tables", o.tables}, {"batch", o.batch}, {"lookups", o.lookups}, {"cores", o.cores}, {"dim", o.dim}} {
		if f.v < 1 {
			errs = append(errs, fmt.Errorf("-%s %d (want >= 1)", f.name, f.v))
		}
	}
	tc := trace.Config{
		Hotness: h, Rows: o.rows, Tables: o.tables,
		BatchSize: o.batch, LookupsPerSample: o.lookups, Batches: o.cores, Seed: o.seed,
	}
	cpu := platform.CascadeLake()
	mc := reuse.ModelConfig{
		EmbeddingDim: o.dim,
		Cores:        o.cores,
		Caches:       []memsim.CacheConfig{cpu.Mem.L1, cpu.Mem.L2, cpu.Mem.L3},
	}
	return tc, mc, errors.Join(errs...)
}

func main() {
	var o options
	flag.StringVar(&o.hotness, "hotness", "medium", "one-item | high | medium | low | random")
	flag.IntVar(&o.rows, "rows", 125_000, "rows per embedding table")
	flag.IntVar(&o.tables, "tables", 8, "number of tables")
	flag.IntVar(&o.batch, "batch", 64, "batch size")
	flag.IntVar(&o.lookups, "lookups", 120, "lookups per sample")
	flag.IntVar(&o.cores, "cores", 24, "concurrently executing cores (interleaved streams)")
	flag.IntVar(&o.dim, "dim", 128, "embedding dimension")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.BoolVar(&o.hist, "hist", false, "print the log2 distance histogram")
	flag.Parse()

	tc, mc, err := o.validate()
	if err != nil {
		fatal(err)
	}
	ds, err := trace.NewDataset(tc)
	if err != nil {
		fatal(err)
	}
	res, err := reuse.Run(ds, mc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset=%v tables=%d rows=%d cores=%d dim=%d accesses=%d\n",
		tc.Hotness, o.tables, o.rows, o.cores, o.dim, res.Accesses)
	for _, name := range []string{"L1D", "L2", "L3"} {
		fmt.Printf("%-4s capacity=%6d vectors  hit rate=%6.2f%%\n",
			name, res.VectorCapacity[name], 100*res.HitRates[name])
	}
	fmt.Printf("cold misses: %.2f%% of accesses\n", 100*res.ColdMissFraction)
	fmt.Printf("mean finite reuse distance: %.0f vectors\n", res.MeanDistance)
	if o.hist {
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
