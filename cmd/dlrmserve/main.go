// Command dlrmserve explores tail latency and SLA compliance (the paper's
// Fig. 17): it obtains per-design batch service times from the timing
// simulator and subjects each design to a Poisson arrival sweep.
//
// Usage:
//
//	dlrmserve -model rm2_1 -hotness low -scale 8
//	dlrmserve -model rm1 -schemes baseline,integrated -cores 16
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/serve"
	"dlrmsim/internal/trace"
)

// mainFlags carries every flag, so the bad-input paths are a plain
// function a test can drive without an engine run or an os.Exit.
type mainFlags struct {
	modelName, hotness, schemes string
	scale, cores, requests      int
	seed                        uint64
}

// validate turns the flags into the configs the run uses and reports
// every bad flag at once, before any engine work starts: the flag checks
// only the CLI can make here, every range rule through the library
// configs' own Validate. It returns the engine options each design point
// runs with (the baseline's service time anchors the arrival sweep), the
// design points, and the serving config each design's arrival sweep
// runs, whose service and arrival times are stand-ins until then.
func (o mainFlags) validate() (core.Options, []core.Scheme, serve.Config, error) {
	var errs []error // errors.Join drops the nil ones
	base, err := dlrm.ByName(o.modelName)
	if err != nil {
		errs = append(errs, err)
		base = dlrm.RM2Small() // a stand-in, so the configs below still check the other flags
	}
	h, err := trace.ParseHotness(o.hotness)
	if err == nil && !slices.Contains(trace.ProductionHotness, h) {
		err = fmt.Errorf("-hotness %s is a synthetic class (want high | medium | low)", o.hotness)
	}
	errs = append(errs, err)
	var schemes []core.Scheme
	for _, name := range strings.Split(o.schemes, ",") {
		s, err := core.ParseScheme(strings.TrimSpace(name))
		schemes, errs = append(schemes, s), append(errs, err)
	}
	if o.scale < 1 {
		errs = append(errs, fmt.Errorf("-scale %d (want >= 1)", o.scale))
	}
	if o.requests == 0 { // the serving tier would read 0 as its default count
		errs = append(errs, fmt.Errorf("-requests 0 (want >= 1)"))
	}
	opts := core.Options{Model: base.Scaled(o.scale), Hotness: h, Scheme: core.Baseline, Cores: o.cores, Seed: o.seed}
	errs = append(errs, opts.Validate())
	opts.Cores = cmp.Or(opts.Cores, platform.CascadeLake().Cores) // the sweep spreads arrivals over them
	srv := serve.Config{Cores: opts.Cores, ServiceMs: 1, MeanArrivalMs: 1, JitterFrac: 0.08, Requests: o.requests, Seed: o.seed}
	return opts, schemes, srv, errors.Join(append(errs, srv.Validate())...)
}

func main() {
	var o mainFlags
	flag.StringVar(&o.modelName, "model", "rm2_1", "rm1 | rm2_1 | rm2_2 | rm2_3")
	flag.StringVar(&o.hotness, "hotness", "low", "high | medium | low")
	flag.StringVar(&o.schemes, "schemes", "baseline,swpf,mpht,integrated", "comma-separated design points")
	flag.IntVar(&o.scale, "scale", 8, "model scale-down divisor")
	flag.IntVar(&o.cores, "cores", 0, "server cores (0 = all platform cores)")
	flag.IntVar(&o.requests, "requests", 3000, "requests per sweep point")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.Parse()

	opts, schemes, srv, err := o.validate()
	if err != nil {
		fatal(err)
	}
	n, model := opts.Cores, opts.Model
	fmt.Printf("dlrmserve: %s (scale 1/%d) on %s, %d cores, %v\n\n", o.modelName, o.scale, platform.CascadeLake().Name, n, opts.Hotness)

	// Baseline service time anchors the arrival sweep.
	bl, err := core.Run(opts)
	if err != nil {
		fatal(err)
	}
	arrivals := make([]float64, 0, 6)
	for _, f := range []float64{0.4, 0.7, 1.0, 1.5, 2.5, 4.0} {
		arrivals = append(arrivals, f*bl.BatchLatencyMs/float64(n))
	}
	sla := model.SLATargetMs
	if o.scale > 1 {
		sla = 4 * bl.BatchLatencyMs
		fmt.Printf("(scaled run: using SLA = 4x baseline latency = %.2f ms instead of the paper's %.0f ms)\n\n",
			sla, model.SLATargetMs)
	}

	fmt.Printf("%-12s %-10s", "design", "svc (ms)")
	for _, a := range arrivals {
		fmt.Printf("  p95@%.2fms", a)
	}
	fmt.Printf("  fastest SLA-ok\n")

	for _, s := range schemes {
		opts.Scheme = s
		rep, err := core.Run(opts)
		if err != nil {
			fatal(err)
		}
		srv.ServiceMs = rep.BatchLatencyMs
		points, err := serve.SweepArrival(srv, arrivals)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-12s %-10.2f", s, rep.BatchLatencyMs)
		for _, p := range points {
			fmt.Printf("  %9.1f", p.Result.P95)
		}
		if a, ok := serve.FastestCompliantArrival(points, sla); ok {
			fmt.Printf("  %.2f ms\n", a)
		} else {
			fmt.Printf("  saturated\n")
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlrmserve:", err)
	os.Exit(1)
}
