// Command dlrmhetsched simulates heterogeneous phase-graph scheduling:
// each request is a typed DLRM phase graph (embedding gather → feature
// interaction → MLP, with dependencies) placed by a policy over a fleet
// mixing CPU cores, a batching GPU-like device, and PIM-like gather
// engines (internal/hetsched). Per-phase CPU costs are calibrated from
// the single-node timing simulator, or given explicitly with
// -gather/-dense to skip the engine.
//
// Usage:
//
//	dlrmhetsched -mix hetero -policy steal -util 0.75
//	dlrmhetsched -mix all -policy all -model rm2_1 -hotness medium
//	dlrmhetsched -gather 40 -dense 30 -mix smt2 -policy affinity -jitter 0
//	dlrmhetsched -mix cpu2gpu1 -maxbatch 64 -hold 40
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"dlrmsim/internal/check"
	"dlrmsim/internal/cluster"
	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/hetsched"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

// mainFlags carries every flag that participates in validation, so the
// bad-input paths are a plain function a test can drive without an
// engine run or an os.Exit.
type mainFlags struct {
	mix, policy                 string
	modelName, hotness, scheme  string
	scale, batch, cores         int
	gather, dense               float64
	requests                    int
	arrival, util, jitter, hold float64
	maxBatch                    int
}

// engineFlags are meaningless when -gather/-dense set the phase graph
// explicitly; validate rejects misplaced ones in a single pass.
var engineFlags = []string{"model", "hotness", "scheme", "scale", "batch", "cores"}

// validate reports every bad flag at once, before any engine work starts.
// isSet reports whether a flag was given explicitly on the command line.
func (o mainFlags) validate(isSet func(string) bool) error {
	var errs []error
	if isSet("gather") || isSet("dense") {
		if !isSet("gather") || !isSet("dense") {
			errs = append(errs, fmt.Errorf("-gather and -dense set the synthetic phase graph together"))
		}
		if isSet("gather") && o.gather <= 0 {
			errs = append(errs, fmt.Errorf("-gather %g µs (want > 0)", o.gather))
		}
		if isSet("dense") && o.dense <= 0 {
			errs = append(errs, fmt.Errorf("-dense %g µs (want > 0)", o.dense))
		}
		for _, name := range engineFlags {
			if isSet(name) {
				errs = append(errs, fmt.Errorf("-%s is an engine-calibration flag, unused with -gather/-dense", name))
			}
		}
	} else {
		if o.scale < 1 {
			errs = append(errs, fmt.Errorf("-scale %d (want >= 1)", o.scale))
		}
		if o.batch < 1 {
			errs = append(errs, fmt.Errorf("-batch %d (want >= 1)", o.batch))
		}
		if o.cores < 0 {
			errs = append(errs, fmt.Errorf("-cores %d (want >= 0)", o.cores))
		}
		if h, err := trace.ParseHotness(o.hotness); err != nil {
			errs = append(errs, err)
		} else if !slices.Contains(trace.ProductionHotness, h) {
			errs = append(errs, fmt.Errorf("-hotness %s is a synthetic class (want high | medium | low)", o.hotness))
		}
	}
	if o.mix != "all" {
		if _, err := hetsched.NewMix(o.mix); err != nil {
			errs = append(errs, err)
		}
	}
	if o.policy != "all" {
		if _, err := hetsched.ParsePolicy(o.policy); err != nil {
			errs = append(errs, err)
		}
	}
	if o.requests < 1 {
		errs = append(errs, fmt.Errorf("-requests %d (want >= 1)", o.requests))
	}
	if o.arrival < 0 {
		errs = append(errs, fmt.Errorf("-arrival %g ms (want >= 0; 0 derives from -util)", o.arrival))
	}
	if o.arrival == 0 && (o.util <= 0 || o.util >= 1) {
		errs = append(errs, fmt.Errorf("-util %g outside (0,1)", o.util))
	}
	if o.jitter < 0 || o.jitter > 2 {
		errs = append(errs, fmt.Errorf("-jitter %g outside [0,2]", o.jitter))
	}
	if o.maxBatch < 0 {
		errs = append(errs, fmt.Errorf("-maxbatch %d (want >= 0)", o.maxBatch))
	}
	if o.hold < 0 {
		errs = append(errs, fmt.Errorf("-hold %g µs (want >= 0)", o.hold))
	}
	if isSet("maxbatch") || isSet("hold") {
		hasGPU := false
		if o.mix != "all" {
			if devs, err := hetsched.NewMix(o.mix); err == nil {
				for _, d := range devs {
					if d.Class == hetsched.GPUClass {
						hasGPU = true
					}
				}
			}
		}
		if !hasGPU {
			errs = append(errs, fmt.Errorf("-maxbatch/-hold override the GPU and need a single mix containing one (have -mix %s)", o.mix))
		}
	}
	return errors.Join(errs...)
}

func main() {
	var o mainFlags
	flag.StringVar(&o.mix, "mix", "hetero", "device mix: "+strings.Join(hetsched.Mixes, " | ")+" | all")
	flag.StringVar(&o.policy, "policy", "affinity", "placement policy: affinity | eft | steal | all")
	flag.StringVar(&o.modelName, "model", "rm2_1", "rm1 | rm2_1 | rm2_2 | rm2_3")
	flag.StringVar(&o.hotness, "hotness", "medium", "high | medium | low")
	flag.StringVar(&o.scheme, "scheme", "baseline", "per-node design point: baseline | swpf | mpht | integrated")
	flag.IntVar(&o.scale, "scale", 8, "model scale-down divisor")
	flag.IntVar(&o.batch, "batch", 8, "samples per request (sets the gather phase's lookup count)")
	flag.IntVar(&o.cores, "cores", 0, "engine cores for the calibration run (0 = all platform cores)")
	flag.Float64Var(&o.gather, "gather", 0, "explicit gather-phase cost in CPU-µs (with -dense; skips the engine)")
	flag.Float64Var(&o.dense, "dense", 0, "explicit dense (interaction+MLP) cost in CPU-µs (with -gather)")
	flag.IntVar(&o.requests, "requests", 4000, "requests to simulate per sweep point")
	flag.Float64Var(&o.arrival, "arrival", 0, "mean request inter-arrival time in ms (0 = derive from -util per mix)")
	flag.Float64Var(&o.util, "util", 0.75, "target fleet utilization when -arrival is 0")
	flag.Float64Var(&o.jitter, "jitter", 0.25, "lognormal service-time jitter fraction")
	flag.IntVar(&o.maxBatch, "maxbatch", 0, "override the GPU's max batch size (needs a mix with a GPU)")
	flag.Float64Var(&o.hold, "hold", 0, "override the GPU's batching hold window in µs (needs a mix with a GPU)")
	seed := flag.Uint64("seed", 1, "random seed")
	checkMode := flag.Bool("check", false, "enable runtime invariant assertions (debug; slower)")
	flag.Parse()
	check.Enabled = *checkMode

	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	isSet := func(name string) bool { return setFlags[name] }
	if err := o.validate(isSet); err != nil {
		fatal(err)
	}

	var g hetsched.Graph
	if isSet("gather") {
		g = hetsched.DLRMGraph(o.gather, o.dense)
		fmt.Printf("dlrmhetsched: synthetic phase graph\n")
	} else {
		base, err := dlrm.ByName(o.modelName)
		if err != nil {
			fatal(err)
		}
		h, err := trace.ParseHotness(o.hotness)
		if err != nil {
			fatal(err)
		}
		scheme, err := core.ParseScheme(o.scheme)
		if err != nil {
			fatal(err)
		}
		cpu := platform.CascadeLake()
		n := cpu.Cores
		if o.cores > 0 && o.cores <= cpu.Cores {
			n = o.cores
		}
		model := base.Scaled(o.scale)
		// One memoizable engine run calibrates the per-phase CPU costs.
		rep, err := core.Run(core.Options{Model: model, Hotness: h, Scheme: scheme, Cores: n, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		lookups := o.batch * model.Tables * model.LookupsPerSample
		tm := cluster.TimingFromReport(rep, cpu, lookups)
		g = hetsched.DLRMGraph(tm.ColdLookupUs*float64(lookups), tm.DenseMs*1e3)
		fmt.Printf("dlrmhetsched: %s (scale 1/%d), %v, %s design, %d-sample requests\n",
			base.Name, o.scale, h, scheme, o.batch)
	}
	kw := g.KindWorkUs()
	fmt.Printf("phases: %.2f µs gather, %.2f µs interact, %.2f µs mlp (%.2f µs/request on a reference core)\n",
		kw[hetsched.Gather], kw[hetsched.Interact], kw[hetsched.MLP], g.TotalWorkUs())
	if o.arrival > 0 {
		fmt.Printf("load: one request every %.4f ms (mean), jitter %.2f\n", o.arrival, o.jitter)
	} else {
		fmt.Printf("load: sized per mix for %.0f%% fleet utilization, jitter %.2f\n", 100*o.util, o.jitter)
	}
	fmt.Println()

	mixes := []string{o.mix}
	if o.mix == "all" {
		mixes = hetsched.Mixes
	}
	policies := hetsched.AllPolicies
	if o.policy != "all" {
		p, err := hetsched.ParsePolicy(o.policy)
		if err != nil {
			fatal(err)
		}
		policies = []hetsched.Policy{p}
	}

	fmt.Printf("%-10s %-9s %12s %9s %9s %9s %10s %9s %6s %7s %6s %10s %10s\n",
		"mix", "policy", "arrival (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)", "qps",
		"wait (ms)", "batch", "steals", "util", "cross (ms)", "same (ms)")
	for _, mix := range mixes {
		devs, err := hetsched.NewMix(mix)
		if err != nil {
			fatal(err)
		}
		for i := range devs {
			if devs[i].Class != hetsched.GPUClass {
				continue
			}
			if isSet("maxbatch") {
				devs[i].MaxBatch = o.maxBatch
			}
			if isSet("hold") {
				devs[i].HoldUs = o.hold
			}
		}
		arrival := o.arrival
		if arrival == 0 {
			arrival = hetsched.ArrivalForUtilization(g, devs, o.util)
		}
		for _, pol := range policies {
			cfg := hetsched.Config{
				Graph:         g,
				Devices:       devs,
				Policy:        pol,
				MeanArrivalMs: arrival,
				Requests:      o.requests,
				JitterFrac:    o.jitter,
				Seed:          *seed,
			}
			// Collect every config violation in one report.
			if err := cfg.Validate(); err != nil {
				fatal(err)
			}
			res, err := hetsched.Simulate(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-10s %-9s %12.4f %9.3f %9.3f %9.3f %10.0f %9.3f %6.2f %7d %5.1f%% %10.1f %10.1f\n",
				mix, pol, arrival, res.P50, res.P95, res.P99, res.ThroughputQPS,
				res.MeanPhaseWaitMs, res.MeanBatchItems, res.Steals, 100*res.UtilTotal,
				res.CrossKindOverlapMs, res.SameKindOverlapMs)
		}
	}
	fmt.Printf("\neach policy owns a regime: affinity on SMT siblings (the paper's MP-HT colocation —\nzero same-kind overlap), earliest-finish on speed-asymmetric big.LITTLE fleets, and\nwork stealing on wide uniform or deeply heterogeneous fleets\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlrmhetsched:", err)
	os.Exit(1)
}
