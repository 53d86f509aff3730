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

// mainFlags carries every flag that participates in validation, so the
// bad-input paths are a plain function a test can drive without an
// engine run or an os.Exit.
type mainFlags struct {
	modelName, hotness, schemes string
	scale, cores, requests      int
}

// validate reports every bad flag at once, before any engine work starts,
// and returns the parsed hotness and design points. platformCores bounds
// -cores.
func (o mainFlags) validate(platformCores int) (trace.Hotness, []core.Scheme, error) {
	var errs []error
	if _, err := dlrm.ByName(o.modelName); err != nil {
		errs = append(errs, err)
	}
	h, err := trace.ParseHotness(o.hotness)
	if err != nil {
		errs = append(errs, err)
	} else if !slices.Contains(trace.ProductionHotness, h) {
		errs = append(errs, fmt.Errorf("-hotness %s is a synthetic class (want high | medium | low)", o.hotness))
	}
	var schemes []core.Scheme
	for _, name := range strings.Split(o.schemes, ",") {
		s, err := core.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		schemes = append(schemes, s)
	}
	if o.scale < 1 {
		errs = append(errs, fmt.Errorf("-scale %d (want >= 1)", o.scale))
	}
	if o.cores < 0 || o.cores > platformCores {
		errs = append(errs, fmt.Errorf("-cores %d outside [0,%d] (0 = all platform cores)", o.cores, platformCores))
	}
	if o.requests < 1 {
		errs = append(errs, fmt.Errorf("-requests %d (want >= 1)", o.requests))
	}
	return h, schemes, errors.Join(errs...)
}

func main() {
	var o mainFlags
	flag.StringVar(&o.modelName, "model", "rm2_1", "rm1 | rm2_1 | rm2_2 | rm2_3")
	flag.StringVar(&o.hotness, "hotness", "low", "high | medium | low")
	flag.StringVar(&o.schemes, "schemes", "baseline,swpf,mpht,integrated", "comma-separated design points")
	flag.IntVar(&o.scale, "scale", 8, "model scale-down divisor")
	flag.IntVar(&o.cores, "cores", 0, "server cores (0 = all platform cores)")
	flag.IntVar(&o.requests, "requests", 3000, "requests per sweep point")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	cpu := platform.CascadeLake()
	h, schemes, err := o.validate(cpu.Cores)
	if err != nil {
		fatal(err)
	}
	base, err := dlrm.ByName(o.modelName)
	if err != nil {
		fatal(err)
	}
	n := cpu.Cores
	if o.cores > 0 {
		n = o.cores
	}
	model := base.Scaled(o.scale)

	fmt.Printf("dlrmserve: %s (scale 1/%d) on %s, %d cores, %v\n\n", base.Name, o.scale, cpu.Name, n, h)

	// Baseline service time anchors the arrival sweep.
	bl, err := core.Run(core.Options{Model: model, Hotness: h, Scheme: core.Baseline, Cores: n, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	arrivals := make([]float64, 0, 6)
	for _, f := range []float64{0.4, 0.7, 1.0, 1.5, 2.5, 4.0} {
		arrivals = append(arrivals, f*bl.BatchLatencyMs/float64(n))
	}
	sla := base.SLATargetMs
	if o.scale > 1 {
		sla = 4 * bl.BatchLatencyMs
		fmt.Printf("(scaled run: using SLA = 4x baseline latency = %.2f ms instead of the paper's %.0f ms)\n\n",
			sla, base.SLATargetMs)
	}

	fmt.Printf("%-12s %-10s", "design", "svc (ms)")
	for _, a := range arrivals {
		fmt.Printf("  p95@%.2fms", a)
	}
	fmt.Printf("  fastest SLA-ok\n")

	for _, s := range schemes {
		rep, err := core.Run(core.Options{Model: model, Hotness: h, Scheme: s, Cores: n, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		points, err := serve.SweepArrival(serve.Config{
			Cores:      n,
			ServiceMs:  rep.BatchLatencyMs,
			JitterFrac: 0.08,
			Requests:   o.requests,
			Seed:       *seed,
		}, arrivals)
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
