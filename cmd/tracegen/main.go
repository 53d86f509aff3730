// Command tracegen generates and inspects synthetic embedding-lookup
// traces (the substitution for Meta's dlrm_datasets; see DESIGN.md §2).
//
// Usage:
//
//	tracegen -hotness low -rows 1000000 -tables 4 -o trace.bin   # write
//	tracegen -hotness high -stats                                # inspect
//	tracegen -in trace.bin -stats                                # re-read
package main

import (
	"flag"
	"fmt"
	"os"

	"dlrmsim/internal/trace"
)

func main() {
	var (
		hotness = flag.String("hotness", "medium", "one-item | high | medium | low | random")
		rows    = flag.Int("rows", 1_000_000, "rows per embedding table")
		tables  = flag.Int("tables", 4, "number of tables")
		batch   = flag.Int("batch", 64, "batch size")
		lookups = flag.Int("lookups", 120, "lookups per sample")
		batches = flag.Int("batches", 8, "number of batches")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("o", "", "write the trace to this file")
		in      = flag.String("in", "", "read and inspect an existing trace file")
		stats   = flag.Bool("stats", false, "print hotness statistics (Fig. 5 data)")
		topN    = flag.Int("top", 10, "how many top access counts to print with -stats")
	)
	flag.Parse()

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		st, err := trace.Read(f)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %+v\n", st.Config)
		tb := st.Batch(0, 0)
		fmt.Printf("batch 0 / table 0: %d samples, %d indices\n", len(tb.Offsets)-1, len(tb.Indices))
		return
	}

	h, err := trace.ParseHotness(*hotness)
	if err != nil {
		fatal(err)
	}
	ds, err := trace.NewDataset(trace.Config{
		Hotness: h, Rows: *rows, Tables: *tables,
		BatchSize: *batch, LookupsPerSample: *lookups, Batches: *batches, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %v, %d tables x %d rows, %d batches x %d samples x %d lookups (zipf s=%.3f)\n",
		h, *tables, *rows, *batches, *batch, *lookups, ds.Exponent())

	if *stats {
		for t := 0; t < min(*tables, 3); t++ {
			counts := ds.AccessCounts(t)
			total := 0
			for _, c := range counts {
				total += c
			}
			fmt.Printf("table %d: unique=%.3f distinct=%d accesses=%d\n",
				t, ds.UniqueFraction(t), len(counts), total)
			n := min(*topN, len(counts))
			fmt.Printf("  top-%d counts:", n)
			for i := 0; i < n; i++ {
				fmt.Printf(" %d", counts[i])
			}
			fmt.Println()
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := trace.Write(f, ds); err != nil {
			fatal(err)
		}
		info, _ := f.Stat()
		fmt.Printf("wrote %s (%d bytes)\n", *out, info.Size())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
