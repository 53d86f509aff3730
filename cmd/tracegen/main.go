// Command tracegen generates and inspects synthetic embedding-lookup
// traces (the substitution for Meta's dlrm_datasets; see DESIGN.md §2).
//
// Usage:
//
//	tracegen -hotness low -rows 1000000 -tables 4 -o trace.bin   # write
//	tracegen -hotness high -stats                                # inspect
//	tracegen -in trace.bin                                       # re-read
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dlrmsim/internal/trace"
)

// options holds the parsed command line.
type options struct {
	hotness                               string
	rows, tables, batch, lookups, batches int
	seed                                  uint64
	out, in                               string
	stats                                 bool
	top                                   int
}

// validate turns the flags into the trace.Config a generated trace uses
// and reports every bad flag at once, the config's ranges through its
// own Validate. isSet reports whether a flag was given explicitly: -in
// reads the trace's shape from the file, so the flags that shape or
// inspect a generated trace are rejected with it instead of silently
// ignored.
func (o options) validate(isSet func(string) bool) (trace.Config, error) {
	var errs []error
	if o.top < 0 {
		errs = append(errs, fmt.Errorf("-top %d (want >= 0)", o.top))
	}
	if o.in != "" {
		for _, name := range []string{"hotness", "rows", "tables", "batch", "lookups", "batches", "seed", "o", "stats"} {
			if isSet(name) {
				errs = append(errs, fmt.Errorf("-%s applies to a generated trace, not to -in", name))
			}
		}
		return trace.Config{}, errors.Join(errs...)
	}
	h, err := trace.ParseHotness(o.hotness)
	cfg := trace.Config{
		Hotness: h, Rows: o.rows, Tables: o.tables,
		BatchSize: o.batch, LookupsPerSample: o.lookups, Batches: o.batches, Seed: o.seed,
	}
	return cfg, errors.Join(append(errs, err, cfg.Validate())...)
}

func main() {
	var o options
	flag.StringVar(&o.hotness, "hotness", "medium", "one-item | high | medium | low | random")
	flag.IntVar(&o.rows, "rows", 1_000_000, "rows per embedding table")
	flag.IntVar(&o.tables, "tables", 4, "number of tables")
	flag.IntVar(&o.batch, "batch", 64, "batch size")
	flag.IntVar(&o.lookups, "lookups", 120, "lookups per sample")
	flag.IntVar(&o.batches, "batches", 8, "number of batches")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.StringVar(&o.out, "o", "", "write the trace to this file")
	flag.StringVar(&o.in, "in", "", "read an existing trace file and print its header")
	flag.BoolVar(&o.stats, "stats", false, "print hotness statistics (Fig. 5 data)")
	flag.IntVar(&o.top, "top", 10, "how many top access counts to print with -stats")
	flag.Parse()
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	cfg, err := o.validate(func(name string) bool { return setFlags[name] })
	if err != nil {
		fatal(err)
	}

	if o.in != "" {
		f, err := os.Open(o.in)
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

	ds, err := trace.NewDataset(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %v, %d tables x %d rows, %d batches x %d samples x %d lookups (zipf s=%.3f)\n",
		cfg.Hotness, cfg.Tables, cfg.Rows, cfg.Batches, cfg.BatchSize, cfg.LookupsPerSample, cfg.Hotness.ReferenceExponent())

	if o.stats {
		for t := 0; t < min(o.tables, 3); t++ {
			counts := ds.AccessCounts(t)
			total := 0
			for _, c := range counts {
				total += c
			}
			fmt.Printf("table %d: unique=%.3f distinct=%d accesses=%d\n",
				t, float64(len(counts))/float64(total), len(counts), total)
			n := min(o.top, len(counts))
			fmt.Printf("  top-%d counts:", n)
			for i := 0; i < n; i++ {
				fmt.Printf(" %d", counts[i])
			}
			fmt.Println()
		}
	}

	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			fatal(err)
		}
		if err := trace.Write(f, ds); err != nil {
			fatal(err)
		}
		info, err := f.Stat()
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", o.out, info.Size())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
