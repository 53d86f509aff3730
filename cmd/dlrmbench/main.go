// Command dlrmbench regenerates the paper's evaluation artifacts (figures
// and tables) as text tables.
//
// Usage:
//
//	dlrmbench -exp all                 # every artifact, quick scale
//	dlrmbench -exp fig13,fig15         # selected artifacts
//	dlrmbench -exp tab4 -scale 1       # paper-scale model (slow)
//	dlrmbench -exp all -workers 1      # sequential (default: all CPUs)
//	dlrmbench -exp all -checkpoint dir # persist cells; an interrupted
//	                                   # re-run resumes where it stopped
//	dlrmbench -list                    # list experiment IDs
//
// -scale divides model dimensions (tables, lookups, rows, MLP widths);
// speedup ratios are stable under scaling, absolute milliseconds are not.
//
// -workers fans the sweep's design points out over a goroutine pool. The
// tables are byte-identical for every worker count (every design point is
// a pure function of its options and results are collected in experiment
// order); -workers 1 runs strictly sequentially on one goroutine and
// prints per-experiment timing as each artifact finishes.
//
// Every sweep runs to completion: an experiment that fails (a panic in a
// design point included) is skipped in the output, the tables of the
// others are printed, every failure is reported on stderr with its stack,
// and the exit status is 1. An unknown experiment ID exits 2 before
// anything runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dlrmsim/internal/check"
	"dlrmsim/internal/cluster"
	"dlrmsim/internal/exp"
	"dlrmsim/internal/prof"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		scale     = flag.Int("scale", 8, "model scale-down divisor (1 = paper scale)")
		cores     = flag.Int("cores", 0, "override multi-core core count (0 = all platform cores; above a platform's own count, all of that platform's cores)")
		batch     = flag.Int("batch", 64, "batch size")
		batches   = flag.Int("batches", 1, "measured batches per core")
		seed      = flag.Uint64("seed", 1, "random seed")
		bwIters   = flag.Int("bwiters", 2, "DRAM bandwidth fixed-point iterations")
		workers   = flag.Int("workers", runtime.NumCPU(), "parallel simulation workers (1 = sequential)")
		shardW    = flag.Int("shard-workers", 1, "goroutines that pre-draw each cluster simulation's arrivals (1 = inline; byte-identical at any value)")
		format    = flag.String("format", "text", "output format: text | csv")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		quietTime = flag.Bool("notime", false, "suppress timing output")
		ckptDir   = flag.String("checkpoint", "", "persist completed design points to this directory and resume from it")
		resume    = flag.Bool("resume", true, "with -checkpoint: reuse cells already in the store (false = recompute and overwrite)")
		checkMode = flag.Bool("check", false, "enable runtime invariant assertions (debug; slower)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	check.Enabled = *checkMode

	if *list {
		for _, id := range exp.IDs() {
			e, _ := exp.Get(id)
			fmt.Printf("%-8s %s\n", id, e.Title)
		}
		return
	}

	ids := exp.IDs()
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
	}
	for _, id := range ids {
		if _, err := exp.Get(strings.TrimSpace(id)); err != nil {
			fmt.Fprintln(os.Stderr, "dlrmbench:", err)
			os.Exit(2)
		}
	}
	cfg := exp.Config{
		Scale:               *scale,
		BatchSize:           *batch,
		Batches:             *batches,
		Cores:               *cores,
		Seed:                *seed,
		BandwidthIterations: *bwIters,
	}
	// Fail on every bad flag at once, before any simulation starts.
	var flagErrs []error
	if err := cfg.Validate(); err != nil {
		flagErrs = append(flagErrs, err)
	}
	if *format != "text" && *format != "csv" {
		flagErrs = append(flagErrs, fmt.Errorf("unknown -format %q (want text or csv)", *format))
	}
	if *workers < 1 {
		flagErrs = append(flagErrs, fmt.Errorf("-workers %d (want >= 1)", *workers))
	}
	if *shardW < 1 {
		flagErrs = append(flagErrs, fmt.Errorf("-shard-workers %d (want >= 1)", *shardW))
	}
	resumeSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "resume" {
			resumeSet = true
		}
	})
	if resumeSet && *ckptDir == "" {
		flagErrs = append(flagErrs, fmt.Errorf("-resume without -checkpoint has no effect"))
	}
	if len(flagErrs) > 0 {
		fail(errors.Join(flagErrs...))
	}
	if *shardW > 1 {
		cluster.SetExecBackend(cluster.Parallel(*shardW))
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dlrmbench:", err)
		}
	}()
	x := exp.NewContext(cfg)
	var cp *exp.Checkpoint
	if *ckptDir != "" {
		cp, err = exp.OpenCheckpoint(*ckptDir)
		if err != nil {
			fail(err)
		}
		defer cp.Close()
		cp.SetWriteOnly(!*resume)
		x.WithCheckpoint(cp)
	}
	if *format == "text" {
		fmt.Printf("dlrmbench: scale=1/%d batch=%d batches=%d seed=%d\n\n",
			x.Cfg.Scale, x.Cfg.BatchSize, x.Cfg.Batches, x.Cfg.Seed)
	}
	render := func(tbl *exp.Table) {
		r := tbl.Render
		if *format == "csv" {
			r = tbl.RenderCSV
		}
		if err := r(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	reportStore := func() {
		if cp == nil || *quietTime || *format != "text" {
			return
		}
		s := cp.Stats()
		fmt.Printf("(checkpoint %s: %d resumed, %d simulated", cp.Dir(), s.Hits, s.Writes)
		if s.Corrupt > 0 {
			fmt.Printf(", %d corrupt entries recomputed", s.Corrupt)
		}
		if s.WriteErrors > 0 {
			fmt.Printf(", %d write errors", s.WriteErrors)
		}
		fmt.Printf(")\n")
	}
	ctx := context.Background()
	var errs []error
	if *workers == 1 {
		// Sequential path: render and time each artifact as it completes.
		for _, id := range ids {
			start := time.Now()
			tables, err := exp.RunAll(ctx, x, []string{id}, 1)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			render(tables[0])
			if !*quietTime && *format == "text" {
				fmt.Printf("(%s completed in %.1fs)\n\n", tables[0].ID, time.Since(start).Seconds())
			}
		}
	} else {
		start := time.Now()
		tables, err := exp.RunAll(ctx, x, ids, *workers)
		done := 0
		for _, tbl := range tables {
			if tbl != nil {
				render(tbl)
				done++
			}
		}
		if err != nil {
			errs = append(errs, err)
		}
		if !*quietTime && *format == "text" {
			fmt.Printf("(%d experiments completed in %.1fs with %d workers)\n",
				done, time.Since(start).Seconds(), *workers)
		}
	}
	reportStore()
	if len(errs) > 0 {
		fmt.Fprint(os.Stderr, exp.FormatFailures(errors.Join(errs...)))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlrmbench:", err)
	os.Exit(1)
}
