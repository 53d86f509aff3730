package main

// The four workloads. Each builds its ops from the seed with the public
// constructors of internal/exp, internal/cluster and internal/hetsched,
// so the benchmark drives the simulator the way its CLIs and library
// callers do. README.md records why each workload was chosen.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"

	"dlrmsim/internal/cluster"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/exp"
	"dlrmsim/internal/hetsched"
	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// sizes fixes how much work the ops of each workload do.
type sizes struct {
	render    exp.Config // Seed is set per run
	renderIDs []string   // nil renders the whole registry

	dayMs float64
	users int

	closedRuns    int // per kind: steady and faulted
	closedQueries int
	hetSeeds      int // per device mix × policy
	hetRequests   int
}

// fullSize is what the benchmark measures. The render keeps Scale 40 (the
// CLI's quick mode) but runs the multi-core panels on 4 cores instead of
// every platform core, which cuts one registry render from about 18 s to
// about 3.3 s on 2 CPUs while keeping all 34 experiments and all three
// hotness classes.
var fullSize = sizes{
	render: exp.Config{Scale: 40, Cores: 4},
	dayMs:  4000, users: 1 << 16,
	closedRuns: 100, closedQueries: 1500,
	hetSeeds: 8, hetRequests: 10000,
}

// tinySize keeps every code path of every workload and finishes in a
// fraction of a second per op; the smoke test runs it.
var tinySize = sizes{
	render:    exp.Config{Scale: 400, Cores: 1, BatchSize: 4},
	renderIDs: []string{"fig12", "fig13", "fig16", "fig5", "clu1", "het1"},
	dayMs:     200, users: 1024,
	closedRuns: 2, closedQueries: 200,
	hetSeeds: 1, hetRequests: 300,
}

// op is one timed public call into the simulator.
type op struct {
	name  string // span name: the public call and what it ran
	group string // per-group statistics key
	run   func() (opOut, error)
}

// opOut is what the harness keeps of one op's output.
type opOut struct {
	digest  [32]byte
	simReqs float64 // simulated requests served
	copies  float64 // sub-request copies served (day workloads)
}

// opList is one workload's ops, built from the seed.
type opList struct {
	ops    []op  // one pass; a run cycles through it
	traced []op  // the traced run's pass, where it differs from ops
	warmup []int // indexes of ops run once, untimed, before timing
	// lastDay is the last day a day workload simulated.
	lastDay cluster.Result
}

// workload is one benchmark workload.
type workload struct {
	name string
	// parallel runs cluster.Simulate on Parallel(nproc) instead of
	// Sequential.
	parallel bool
	// concurrent drains the op list from nproc client goroutines instead
	// of one.
	concurrent bool
	setup      func(seed uint64, sz sizes, tr *tracer, parent int) (*opList, error)
}

var workloads = []workload{
	{name: "render", setup: setupRender},
	{name: "open_day", parallel: true, setup: func(seed uint64, sz sizes, tr *tracer, parent int) (*opList, error) {
		return setupDay(seed, sz, false, tr, parent)
	}},
	{name: "chaos_day", parallel: true, setup: func(seed uint64, sz sizes, tr *tracer, parent int) (*opList, error) {
		return setupDay(seed, sz, true, tr, parent)
	}},
	{name: "sweep_small", concurrent: true, setup: setupSweep},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// digestOf hashes every field of a simulator result, floats at full
// precision.
func digestOf(v any) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", v)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// combine folds the digests of one pass into the pass digest.
func combine(ds [][32]byte) [32]byte {
	if len(ds) == 1 {
		return ds[0]
	}
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func tableDigest(t *exp.Table) ([32]byte, error) {
	var b bytes.Buffer
	if err := t.Render(&b); err != nil {
		return [32]byte{}, fmt.Errorf("render %s: %w", t.ID, err)
	}
	return sha256.Sum256(b.Bytes()), nil
}

// expGroup names the exp.*_s span group of an experiment.
func expGroup(id string) string {
	switch {
	case id == "fig13" || id == "fig16" || id == "fig12":
		return id
	case strings.HasPrefix(id, "clu"):
		return "cluster"
	case strings.HasPrefix(id, "het"):
		return "het"
	}
	return "engine_other"
}

// setupRender: one op renders the registry with exp.RunAll on a fresh
// Context, as `dlrmbench -exp all` does.
func setupRender(seed uint64, sz sizes, _ *tracer, _ int) (*opList, error) {
	cfg := sz.render
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ids := sz.renderIDs
	if ids == nil {
		ids = exp.IDs()
	}
	for _, id := range ids {
		if _, err := exp.Get(id); err != nil {
			return nil, err
		}
	}
	workers := runtime.GOMAXPROCS(0)
	l := &opList{warmup: []int{0}}
	l.ops = []op{{name: "exp.RunAll", group: "render", run: func() (opOut, error) {
		tables, err := exp.RunAll(context.Background(), exp.NewContext(cfg), ids, workers)
		if err != nil {
			return opOut{}, err
		}
		ds := make([][32]byte, len(tables))
		for i, t := range tables {
			if ds[i], err = tableDigest(t); err != nil {
				return opOut{}, err
			}
		}
		return opOut{digest: combine(ds)}, nil
	}}}
	// The traced pass gives every experiment a span of its own. RunAll
	// must not run concurrently on one Context, so it calls RunAll once
	// per experiment, in registry order, on one shared Context: the same
	// tables, but the experiments no longer overlap.
	var x *exp.Context
	for i, id := range ids {
		first := i == 0
		l.traced = append(l.traced, op{name: "exp.RunAll/" + id, group: expGroup(id), run: func() (opOut, error) {
			if first {
				x = exp.NewContext(cfg)
			}
			tables, err := exp.RunAll(context.Background(), x, []string{id}, workers)
			if err != nil {
				return opOut{}, err
			}
			d, err := tableDigest(tables[0])
			return opOut{digest: d}, err
		}})
	}
	return l, nil
}

// benchTiming is the per-node service model of the cluster workloads, the
// one internal/cluster's own benchmarks use.
var benchTiming = cluster.Timing{ColdLookupUs: 2, HotLookupUs: 0.1, SubRequestUs: 5, DenseMs: 0.05}

// benchPlan shards rm2_1 at 1/20 scale over 8 nodes by row range with 1%
// of every table's rows replicated.
func benchPlan(seed uint64, tr *tracer, parent int) (*cluster.Plan, error) {
	sp := tr.begin("cluster.NewPlan", parent, -1)
	defer tr.end(sp)
	return cluster.NewPlan(dlrm.RM2Small().Scaled(20), 8, cluster.RowRange, 0.01, seed)
}

// setupDay: every op simulates the same open-loop day — Poisson arrivals
// at 0.7 utilization with a 0.6 diurnal swing, a population of revisiting
// users, shed-over-budget admission and streaming statistics. With chaos,
// failure domain 2 of 4 goes down for the middle of the day and the router
// runs retries under a retry budget and circuit breakers.
func setupDay(seed uint64, sz sizes, chaos bool, tr *tracer, parent int) (*opList, error) {
	s := stats.SplitSeed(seed, 0)
	plan, err := benchPlan(s, tr, parent)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Plan:            plan,
		Hotness:         trace.HighHot,
		SamplesPerQuery: 8,
		Timing:          benchTiming,
		Net:             cluster.DefaultNetwork(),
		ServersPerNode:  2,
		JitterFrac:      0.08,
		Seed:            s,
		Open: &cluster.OpenLoop{
			Arrivals: traffic.Config{
				Model:     traffic.Poisson,
				RatePerMs: 1 / cluster.ArrivalForUtilization(plan, benchTiming, 8, 2, 0.7),
				DayMs:     sz.dayMs, DiurnalAmp: 0.6,
			},
			Population:  &traffic.Population{Users: sz.users, RevisitProb: 0.6, Affinity: 0.5},
			DurationMs:  sz.dayMs,
			WarmupMs:    sz.dayMs / 20,
			SLAMs:       50,
			Admission:   cluster.Admission{Policy: cluster.ShedOverBudget, QueueBudgetMs: 25},
			StreamStats: true,
		},
	}
	if chaos {
		cfg.Mitigation = cluster.Mitigation{
			TimeoutMs: 2, MaxRetries: 2,
			RetryBudget: 0.1, AdaptEpochMs: 4,
			BreakerTripRate: 0.5, BreakerMinSamples: 4,
		}
		cfg.Chaos = cluster.ChaosSchedule{
			Domains: 4,
			Events: []cluster.ChaosEvent{
				{Kind: cluster.DomainOutage, Domain: 2, AtMs: sz.dayMs / 4, ForMs: sz.dayMs / 8},
			},
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scoredS := (cfg.Open.DurationMs - cfg.Open.WarmupMs) / 1000
	l := &opList{warmup: []int{0}}
	l.ops = []op{{name: "cluster.Simulate", group: "day", run: func() (opOut, error) {
		res, err := cluster.Simulate(cfg)
		if err != nil {
			return opOut{}, err
		}
		l.lastDay = res
		scored := res.OfferedQPS * scoredS
		return opOut{digest: digestOf(res), simReqs: scored, copies: res.RetryAmplification * scored}, nil
	}}}
	return l, nil
}

// setupSweep: a seed-shuffled list of short closed-loop cluster runs
// (half on a steady fleet, half under faults with timeout, retry, hedge
// and degraded-join mitigation) and hetsched runs over three device mixes
// × three placement policies.
func setupSweep(seed uint64, sz sizes, tr *tracer, parent int) (*opList, error) {
	plan, err := benchPlan(seed, tr, parent)
	if err != nil {
		return nil, err
	}
	steady := cluster.Config{
		Plan:            plan,
		Hotness:         trace.HighHot,
		SamplesPerQuery: 8,
		Timing:          benchTiming,
		Net:             cluster.DefaultNetwork(),
		ServersPerNode:  2,
		MeanArrivalMs:   cluster.ArrivalForUtilization(plan, benchTiming, 8, 2, 0.55),
		JitterFrac:      0.08,
		Queries:         sz.closedQueries,
	}
	faulted := steady
	faulted.Faults = cluster.FaultModel{
		SlowdownEveryMs: 40, SlowdownMeanMs: 6, SlowdownFactor: 4,
		DownEveryMs: 120, DownMeanMs: 3,
		DropProb: 0.01,
	}
	faulted.Mitigation = cluster.Mitigation{TimeoutMs: 2, MaxRetries: 2, HedgeDelayMs: 1, DegradedJoin: true}

	var ops []op
	nextSeed := func() uint64 { return stats.SplitSeed(seed, uint64(len(ops))) }
	for k := 0; k < sz.closedRuns; k++ {
		for _, c := range []struct {
			group string
			cfg   cluster.Config
		}{{"closed", steady}, {"faulted", faulted}} {
			cfg := c.cfg
			cfg.Seed = nextSeed()
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			ops = append(ops, op{name: "cluster.Simulate/" + c.group, group: c.group, run: func() (opOut, error) {
				res, err := cluster.Simulate(cfg)
				if err != nil {
					return opOut{}, err
				}
				return opOut{digest: digestOf(res), simReqs: float64(cfg.Queries)}, nil
			}})
		}
	}
	g := hetsched.DLRMGraph(40, 30)
	for _, mix := range []string{"hetero", "smt2", "cpu4"} {
		devs, err := hetsched.NewMix(mix)
		if err != nil {
			return nil, err
		}
		mean := hetsched.ArrivalForUtilization(g, devs, 0.7)
		for _, pol := range hetsched.AllPolicies {
			for k := 0; k < sz.hetSeeds; k++ {
				cfg := hetsched.Config{
					Graph: g, Devices: devs, Policy: pol,
					MeanArrivalMs: mean, Requests: sz.hetRequests, JitterFrac: 0.2,
					Seed: nextSeed(),
				}
				if err := cfg.Validate(); err != nil {
					return nil, err
				}
				ops = append(ops, op{name: "hetsched.Simulate/" + mix + "." + pol.String(), group: "het", run: func() (opOut, error) {
					res, err := hetsched.Simulate(cfg)
					if err != nil {
						return opOut{}, err
					}
					return opOut{digest: digestOf(res), simReqs: float64(cfg.Requests)}, nil
				}})
			}
		}
	}
	stats.NewRNG(seed).Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	l := &opList{ops: ops}
	seen := map[string]bool{}
	for i, o := range ops {
		if !seen[o.group] {
			seen[o.group] = true
			l.warmup = append(l.warmup, i)
		}
	}
	return l, nil
}
