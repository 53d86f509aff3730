// Command dlrmcluster simulates a sharded multi-node DLRM serving fleet:
// per-node service costs come from the single-node timing simulator, and
// the cluster tier (internal/cluster) models sharding, router fan-out
// over a configurable network, and hot-row replication.
//
// Usage:
//
//	dlrmcluster -model rm2_1 -nodes 8 -policy rowrange -hotness high
//	dlrmcluster -scheme integrated -replicate 0,0.01,0.05 -netlat 0.1
//	dlrmcluster -open -util 1.2 -arrivals mmpp -burst-every 2 -burst-dur 0.3 -admit shed -admit-budget 0.5
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"dlrmsim/internal/check"
	"dlrmsim/internal/cluster"
	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/prof"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// mainFlags carries every flag, so that validation and config assembly
// are plain functions a test can drive without an engine run or an
// os.Exit. The fault and mitigation flags bind straight to the cluster
// tier's configs.
type mainFlags struct {
	modelName, scheme, policy, hotness           string
	scale, nodes, batch, servers, cores, queries int
	arrival, util, netLat, netBW                 float64
	shardWorkers                                 int
	replicate                                    string
	seed                                         uint64
	faults                                       cluster.FaultModel
	mit                                          cluster.Mitigation

	// Chaos schedule (both loop modes).
	chaos   string
	domains int

	// Open-loop live-traffic mode (-open).
	open                              bool
	streamStats                       bool
	rate, duration, openWarmup, sla   float64
	arrivals                          string
	burstFactor, burstEvery, burstDur float64
	day, diurnal                      float64
	flashEvery, flashDur, flashFactor float64
	users                             int
	revisit, affinity                 float64
	admit                             string
	admitBudget                       float64
	startNodes                        int
	scaleEvery, scaleUp, scaleDown    float64
	provision                         float64
	minNodes, maxNodes                int
}

// openOnlyFlags lists the flags that are meaningless without -open;
// validate uses it to reject misplaced knobs in one pass instead of
// silently ignoring them.
var openOnlyFlags = []string{
	"rate", "duration", "open-warmup", "sla", "arrivals", "stream-stats",
	"burst-factor", "burst-every", "burst-dur",
	"day", "diurnal", "flash-every", "flash-dur", "flash-factor",
	"users", "revisit", "affinity", "admit", "admit-budget",
	"start-nodes", "scale-every", "scale-up", "scale-down", "provision",
	"min-nodes", "max-nodes",
}

// run is what one validated command line runs: the engine design point
// that sets the per-node service model, the cluster config, and the
// replication fractions to sweep. Until the engine has run, cfg carries
// stand-ins for what derives from the service model (see derive).
type run struct {
	engine    core.Options
	cfg       cluster.Config
	fractions []float64
}

// nodeTiming runs the one engine design point that sets the per-node
// service model.
func nodeTiming(opts core.Options) (cluster.Timing, error) {
	rep, err := core.Run(opts)
	if err != nil {
		return cluster.Timing{}, err
	}
	return cluster.TimingFromReport(rep, platform.CascadeLake()), nil
}

// validate turns the flags into the configs the run uses and reports
// every bad flag at once, before the engine run starts: the flag checks
// only the CLI can make here, every range rule through the library
// configs' own Validate. isSet reports whether a flag was given
// explicitly on the command line — needed because several flags have
// meaningful non-zero defaults that are only wired through when their
// enabling flag is present.
func (o mainFlags) validate(isSet func(string) bool) (run, error) {
	var errs []error // errors.Join drops the nil ones
	base, err := dlrm.ByName(o.modelName)
	if err != nil {
		errs = append(errs, err)
		base = dlrm.RM2Small() // a stand-in, so the configs below still check the other flags
	}
	scheme, err := core.ParseScheme(o.scheme)
	errs = append(errs, err)
	policy, err := cluster.ParsePolicy(o.policy)
	errs = append(errs, err)
	h, err := trace.ParseHotness(o.hotness)
	if err == nil && !slices.Contains(trace.ProductionHotness, h) {
		err = fmt.Errorf("-hotness %s is a synthetic class (want high | medium | low)", o.hotness)
	}
	errs = append(errs, err)
	fractions, err := parseFractions(o.replicate)
	errs = append(errs, err)
	if o.scale < 1 {
		errs = append(errs, fmt.Errorf("-scale %d (want >= 1)", o.scale))
	}
	if o.servers == 0 { // the cluster tier would read 0 as one server
		errs = append(errs, fmt.Errorf("-servers 0 (want >= 1)"))
	}
	if o.shardWorkers < 1 {
		errs = append(errs, fmt.Errorf("-shard-workers %d (want >= 1)", o.shardWorkers))
	}
	// Chaos and adaptive-mitigation gating applies in both loop modes.
	if o.chaos == "" && isSet("domains") {
		errs = append(errs, fmt.Errorf("-domains needs -chaos"))
	}
	if o.mit.BreakerTripRate == 0 {
		for _, name := range []string{"breaker-min", "breaker-cooldown"} {
			if isSet(name) {
				errs = append(errs, fmt.Errorf("-%s needs -breaker-trip", name))
			}
		}
	}
	if o.mit.RetryBudget == 0 && o.mit.BreakerTripRate == 0 && isSet("adapt-epoch") {
		errs = append(errs, fmt.Errorf("-adapt-epoch needs -retry-budget or -breaker-trip"))
	}
	if !o.open {
		for _, name := range openOnlyFlags {
			if isSet(name) {
				errs = append(errs, fmt.Errorf("-%s needs -open", name))
			}
		}
		if o.queries == 0 { // the cluster tier would read 0 as its default count
			errs = append(errs, fmt.Errorf("-queries 0 (want >= 1)"))
		}
		if o.arrival == 0 && !(o.util > 0 && o.util < 1) {
			errs = append(errs, fmt.Errorf("-util %g outside (0,1)", o.util))
		}
	} else {
		// The closed-loop load knobs are the misplaced ones, and offered
		// load may deliberately exceed capacity (-util >= 1).
		for _, name := range []string{"arrival", "queries"} {
			if isSet(name) {
				errs = append(errs, fmt.Errorf("-%s is a closed-loop flag, unused with -open", name))
			}
		}
		if o.rate == 0 && !(o.util > 0) {
			errs = append(errs, fmt.Errorf("-util %g (want > 0 to derive the open-loop rate)", o.util))
		}
		if o.arrivals != "mmpp" {
			for _, name := range []string{"burst-factor", "burst-every", "burst-dur"} {
				if isSet(name) {
					errs = append(errs, fmt.Errorf("-%s needs -arrivals mmpp", name))
				}
			}
		}
		if o.flashEvery == 0 && isSet("flash-factor") {
			errs = append(errs, fmt.Errorf("-flash-factor needs -flash-every"))
		}
		if o.users == 0 {
			for _, name := range []string{"revisit", "affinity"} {
				if isSet(name) {
					errs = append(errs, fmt.Errorf("-%s needs -users", name))
				}
			}
		}
		if o.scaleEvery == 0 {
			for _, name := range []string{"scale-up", "scale-down", "provision", "min-nodes", "max-nodes"} {
				if isSet(name) {
					errs = append(errs, fmt.Errorf("-%s needs -scale-every", name))
				}
			}
		}
	}

	model := base.Scaled(o.scale)
	r := run{
		engine:    core.Options{Model: model, Hotness: h, Scheme: scheme, BatchSize: o.batch, Cores: o.cores, Seed: o.seed},
		fractions: fractions,
	}
	errs = append(errs, r.engine.Validate())
	plan, err := cluster.NewPlan(model, o.nodes, policy, 0, o.seed)
	errs = append(errs, err)
	r.cfg = cluster.Config{
		Plan:            plan,
		Hotness:         h,
		SamplesPerQuery: o.batch,
		Timing:          cluster.Timing{ColdLookupUs: 1}, // stand-in until the engine run
		Net:             cluster.Network{LatencyMs: o.netLat, BandwidthGBs: o.netBW},
		ServersPerNode:  o.servers,
		JitterFrac:      0.08,
		Faults:          o.faults,
		Mitigation:      o.mit,
		Seed:            o.seed,
	}
	if o.chaos != "" {
		r.cfg.Chaos, err = o.chaosSchedule()
		errs = append(errs, err)
	}
	if o.open {
		r.cfg.Open, err = o.openLoop()
		errs = append(errs, err)
	} else {
		r.cfg.Queries, r.cfg.MeanArrivalMs = o.queries, o.arrival
		if o.arrival == 0 {
			r.cfg.MeanArrivalMs = 1 // stand-in until derive
		}
	}
	errs = append(errs, r.cfg.Validate())
	return r, errors.Join(errs...)
}

// derive replaces the stand-ins validate left for the load knobs a zero
// flag derives from the service model, once cfg.Timing holds the engine's:
// the closed loop's mean arrival, and the open loop's rate, horizon, SLA
// and shed budget. Simulate's Validate makes the checks these depend on.
func (o mainFlags) derive(cfg *cluster.Config) {
	plan, tm := cfg.Plan, cfg.Timing
	if !o.open {
		if o.arrival == 0 {
			cfg.MeanArrivalMs = cluster.ArrivalForUtilization(plan, tm, o.batch, o.servers, o.util)
		}
		return
	}
	op := cfg.Open
	if o.rate == 0 {
		op.Arrivals.RatePerMs = 1 / cluster.ArrivalForUtilization(plan, tm, o.batch, o.servers, o.util)
	}
	if o.duration == 0 {
		op.DurationMs = 1000 / op.Arrivals.RatePerMs
	}
	if o.sla == 0 {
		op.SLAMs = 8 * cluster.QueryWorkMs(plan, tm, o.batch)
	}
	if op.Admission.Policy == cluster.ShedOverBudget && o.admitBudget == 0 {
		op.Admission.QueueBudgetMs = op.SLAMs / 2
	}
}

// chaosSchedule parses the -chaos spec and stamps -domains into it; the
// cluster tier validates the assembled schedule against the node count.
func (o mainFlags) chaosSchedule() (cluster.ChaosSchedule, error) {
	sched, err := cluster.ParseChaosSchedule(o.chaos)
	if err != nil {
		return cluster.ChaosSchedule{}, err
	}
	sched.Domains = o.domains
	return sched, nil
}

// openLoop assembles the cluster.OpenLoop config from the flags, an
// unknown arrival model or admission policy left at its zero value and
// reported. Knobs of disabled features are deliberately left zero — the
// cluster tier rejects misplaced knobs, and validate has already
// explained any the user set.
// A zero -rate, -duration or -sla (and a zero shed -admit-budget) derives
// from the service model; until derive fills it in, it holds a stand-in
// that passes every check not depending on the service model.
func (o mainFlags) openLoop() (*cluster.OpenLoop, error) {
	am, amErr := traffic.ParseModel(o.arrivals)
	pol, polErr := cluster.ParseAdmissionPolicy(o.admit)
	rate, duration, sla, budget := o.rate, o.duration, o.sla, o.admitBudget
	if rate == 0 {
		rate = 1
	}
	if duration == 0 {
		duration = math.MaxFloat64 // above any warmup
	}
	if sla == 0 {
		sla = 1
	}
	if pol == cluster.ShedOverBudget && budget == 0 {
		budget = sla / 2
	}
	ar := traffic.Config{
		Model:        am,
		RatePerMs:    rate,
		DayMs:        o.day,
		DiurnalAmp:   o.diurnal,
		FlashEveryMs: o.flashEvery,
		FlashMeanMs:  o.flashDur,
	}
	if am == traffic.MMPP {
		ar.BurstFactor = o.burstFactor
		ar.BurstEveryMs = o.burstEvery
		ar.BurstMeanMs = o.burstDur
	}
	if o.flashEvery > 0 {
		ar.FlashFactor = o.flashFactor
	}
	open := &cluster.OpenLoop{
		Arrivals:    ar,
		DurationMs:  duration,
		WarmupMs:    o.openWarmup,
		SLAMs:       sla,
		StartNodes:  o.startNodes,
		Admission:   cluster.Admission{Policy: pol, QueueBudgetMs: budget},
		StreamStats: o.streamStats,
	}
	if o.users > 0 {
		open.Population = &traffic.Population{Users: o.users, RevisitProb: o.revisit, Affinity: o.affinity}
	}
	if o.scaleEvery > 0 {
		open.Autoscale = &cluster.Autoscaler{
			IntervalMs:    o.scaleEvery,
			UpBacklogMs:   o.scaleUp,
			DownBacklogMs: o.scaleDown,
			ProvisionMs:   o.provision,
			MinNodes:      o.minNodes,
			MaxNodes:      o.maxNodes,
		}
	}
	return open, errors.Join(amErr, polErr)
}

func main() {
	var o mainFlags
	checkMode := flag.Bool("check", false, "enable runtime invariant assertions (debug; slower)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&o.replicate, "replicate", "0,0.001,0.01,0.05,0.2", "comma-separated hot-row replication fractions to sweep")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.Float64Var(&o.faults.SlowdownEveryMs, "slowdown-every", 0, "mean ms between per-node slowdown episodes (0 = none)")
	flag.Float64Var(&o.faults.SlowdownMeanMs, "slowdown-dur", 0, "mean slowdown episode duration (ms)")
	flag.Float64Var(&o.faults.SlowdownFactor, "slowdown-factor", 4, "service-time multiplier during a slowdown episode")
	flag.Float64Var(&o.faults.DownEveryMs, "down-every", 0, "mean ms between per-node outage windows (0 = none)")
	flag.Float64Var(&o.faults.DownMeanMs, "down-dur", 0, "mean outage window duration (ms)")
	flag.Float64Var(&o.faults.DropProb, "drop", 0, "per-copy transit drop probability in [0,1)")
	flag.Float64Var(&o.faults.DropDetectMs, "drop-detect", 0, "transport loss-detection delay in ms (0 = 1 ms default)")
	flag.Float64Var(&o.mit.TimeoutMs, "timeout", 0, "router per-sub-request timeout in ms (0 = no timeouts)")
	flag.IntVar(&o.mit.MaxRetries, "retries", 0, "max timeout retries down the standby chain")
	flag.Float64Var(&o.mit.HedgeDelayMs, "hedge", 0, "hedged-request delay in ms (0 = no hedging)")
	flag.BoolVar(&o.mit.DegradedJoin, "degraded", false, "join with partial results at the retry budget's deadline")
	flag.StringVar(&o.modelName, "model", "rm2_1", "rm1 | rm2_1 | rm2_2 | rm2_3")
	flag.StringVar(&o.scheme, "scheme", "baseline", "per-node design point: baseline | swpf | mpht | integrated")
	flag.StringVar(&o.policy, "policy", "rowrange", "sharding policy: tablewise | rowrange")
	flag.StringVar(&o.hotness, "hotness", "high", "high | medium | low")
	flag.IntVar(&o.scale, "scale", 8, "model scale-down divisor")
	flag.IntVar(&o.nodes, "nodes", 8, "cluster size")
	flag.IntVar(&o.batch, "batch", 8, "samples per query batch (also the engine batch size)")
	flag.IntVar(&o.servers, "servers", 2, "concurrent servers per node")
	flag.IntVar(&o.cores, "cores", 0, "engine cores for the timing run (0 = all platform cores)")
	flag.IntVar(&o.shardWorkers, "shard-workers", 1, "goroutines that pre-draw each simulation run's arrivals (1 = inline; byte-identical at any value)")
	flag.IntVar(&o.queries, "queries", 4000, "closed-loop queries to simulate per sweep point")
	flag.Float64Var(&o.arrival, "arrival", 0, "closed-loop mean query inter-arrival time in ms (0 = derive from -util)")
	flag.Float64Var(&o.util, "util", 0.55, "target per-node utilization when -arrival/-rate is 0 (may exceed 1 with -open)")
	flag.Float64Var(&o.netLat, "netlat", 0.05, "one-way network latency per message (ms)")
	flag.Float64Var(&o.netBW, "netbw", 10, "per-link network bandwidth (GB/s)")

	flag.StringVar(&o.chaos, "chaos", "", `deterministic chaos schedule, e.g. "down:dom=2,at=200,for=150;part:a=0,b=1,at=400,for=100" (kinds: down, slow [x=factor], part [a=,b=], recover; times in ms)`)
	flag.IntVar(&o.domains, "domains", 0, "failure-domain count for -chaos (0 = one domain per node)")
	flag.Float64Var(&o.mit.RetryBudget, "retry-budget", 0, "cap retries+hedges at this fraction of served primary traffic (0 = uncapped)")
	flag.Float64Var(&o.mit.AdaptEpochMs, "adapt-epoch", 0, "adaptive-mitigation control epoch in ms (0 = derive from timeout/hedge delay)")
	flag.Float64Var(&o.mit.BreakerTripRate, "breaker-trip", 0, "open a node's circuit breaker at this windowed timeout rate in (0,1] (0 = no breakers)")
	flag.IntVar(&o.mit.BreakerMinSamples, "breaker-min", 0, "min per-epoch samples before a breaker may trip (0 = 10)")
	flag.Float64Var(&o.mit.BreakerCooldownMs, "breaker-cooldown", 0, "ms an open breaker waits before half-open probing (0 = 4 epochs)")

	flag.BoolVar(&o.open, "open", false, "open-loop live-traffic mode: arrivals come from a generated stream, not a closed query count")
	flag.BoolVar(&o.streamStats, "stream-stats", false, "open-loop: fixed-memory streaming percentile sketches instead of exact nearest-rank (long runs; summaries differ within sketch error)")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop base arrival rate in queries/ms (0 = derive from -util)")
	flag.Float64Var(&o.duration, "duration", 0, "open-loop horizon in ms (0 = 1000 mean arrival periods)")
	flag.Float64Var(&o.openWarmup, "open-warmup", 0, "warmup ms excluded from open-loop metrics (0 = 5% of duration, -1 = none)")
	flag.Float64Var(&o.sla, "sla", 0, "per-query latency SLA in ms (0 = 8x the mean per-query work)")
	flag.StringVar(&o.arrivals, "arrivals", "poisson", "arrival model: poisson | mmpp")
	flag.Float64Var(&o.burstFactor, "burst-factor", 2, "mmpp: burst-state rate multiplier")
	flag.Float64Var(&o.burstEvery, "burst-every", 0, "mmpp: mean ms between burst episodes")
	flag.Float64Var(&o.burstDur, "burst-dur", 0, "mmpp: mean burst episode duration (ms)")
	flag.Float64Var(&o.day, "day", 0, "diurnal period in ms (0 = no diurnal ramp)")
	flag.Float64Var(&o.diurnal, "diurnal", 0, "diurnal amplitude in [0,1)")
	flag.Float64Var(&o.flashEvery, "flash-every", 0, "mean ms between flash-crowd episodes (0 = none)")
	flag.Float64Var(&o.flashDur, "flash-dur", 0, "mean flash-crowd duration (ms)")
	flag.Float64Var(&o.flashFactor, "flash-factor", 3, "flash-crowd rate multiplier")
	flag.IntVar(&o.users, "users", 0, "synthetic user population size (0 = anonymous arrivals)")
	flag.Float64Var(&o.revisit, "revisit", 0.6, "probability an arrival revisits a recently seen user")
	flag.Float64Var(&o.affinity, "affinity", 0.5, "probability a revisit lookup draws from the user's profile rows")
	flag.StringVar(&o.admit, "admit", "none", "admission policy: none | shed")
	flag.Float64Var(&o.admitBudget, "admit-budget", 0, "shed arrivals whose worst involved-node backlog exceeds this (ms; 0 = half the SLA)")
	flag.IntVar(&o.startNodes, "start-nodes", 0, "nodes active at t=0 (0 = all)")
	flag.Float64Var(&o.scaleEvery, "scale-every", 0, "autoscaler control interval in ms (0 = no autoscaler)")
	flag.Float64Var(&o.scaleUp, "scale-up", 0, "scale up when mean active-node backlog exceeds this (ms)")
	flag.Float64Var(&o.scaleDown, "scale-down", 0, "drain a node when mean backlog falls below this (ms)")
	flag.Float64Var(&o.provision, "provision", 0, "ms a scaled-up node takes to come online")
	flag.IntVar(&o.minNodes, "min-nodes", 0, "autoscaler floor (0 = 1)")
	flag.IntVar(&o.maxNodes, "max-nodes", 0, "autoscaler ceiling (0 = -nodes)")
	flag.Parse()
	check.Enabled = *checkMode

	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	spec, err := o.validate(func(name string) bool { return setFlags[name] })
	if err != nil {
		fatal(err)
	}
	if o.shardWorkers > 1 {
		cluster.SetExecBackend(cluster.Parallel(o.shardWorkers))
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dlrmcluster:", err)
		}
	}()

	tm, err := nodeTiming(spec.engine)
	if err != nil {
		fatal(err)
	}
	cfg, plan := spec.cfg, spec.cfg.Plan
	cfg.Timing = tm
	o.derive(&cfg)

	fmt.Printf("dlrmcluster: %s (scale 1/%d), %v, %s per-node design\n",
		o.modelName, o.scale, spec.engine.Hotness, spec.engine.Scheme)
	fmt.Printf("%d nodes, %s sharding: %.1f MB/node shard (%.1f MB total embeddings)\n",
		plan.Nodes, plan.Policy, float64(plan.MaxShardBytes())/1e6, float64(plan.TotalBytes())/1e6)
	fmt.Printf("service: %.3f µs/cold lookup, %.3f µs/hot lookup, dense %.3f ms; network %.3g ms + %g GB/s\n",
		tm.ColdLookupUs, tm.HotLookupUs, tm.DenseMs, o.netLat, o.netBW)
	if o.open {
		fmt.Printf("open-loop: %s arrivals at %.2f q/ms base rate, horizon %.1f ms (warmup %g), SLA %.3f ms\n",
			cfg.Open.Arrivals.Model, cfg.Open.Arrivals.RatePerMs, cfg.Open.DurationMs, cfg.Open.WarmupMs, cfg.Open.SLAMs)
		if o.users > 0 {
			fmt.Printf("population: %d users, revisit p=%.2f, profile affinity %.2f\n", o.users, o.revisit, o.affinity)
		}
		fmt.Printf("admission: %s", cfg.Open.Admission.Policy)
		if cfg.Open.Admission.Policy == cluster.ShedOverBudget {
			fmt.Printf(" (backlog budget %.3f ms)", cfg.Open.Admission.QueueBudgetMs)
		}
		if a := cfg.Open.Autoscale; a != nil {
			minN, maxN := a.MinNodes, a.MaxNodes
			if minN == 0 {
				minN = 1
			}
			if maxN == 0 {
				maxN = o.nodes
			}
			fmt.Printf("; autoscale every %.2f ms in [%d,%d] nodes", a.IntervalMs, minN, maxN)
		}
		fmt.Println()
	} else {
		fmt.Printf("load: %d-sample queries every %.4f ms (mean), %d servers/node, %d queries\n",
			o.batch, cfg.MeanArrivalMs, o.servers, o.queries)
	}
	faulted := cfg.Faults.Active()
	if faulted {
		fmt.Printf("faults: slowdowns every %g ms (×%g for %g ms), outages every %g ms (%g ms), drop %.1f%%\n",
			cfg.Faults.SlowdownEveryMs, cfg.Faults.SlowdownFactor, cfg.Faults.SlowdownMeanMs,
			cfg.Faults.DownEveryMs, cfg.Faults.DownMeanMs, 100*cfg.Faults.DropProb)
		if cfg.Mitigation.Active() {
			fmt.Printf("mitigation: timeout %g ms × %d retries, hedge %g ms, degraded joins %v\n",
				cfg.Mitigation.TimeoutMs, cfg.Mitigation.MaxRetries, cfg.Mitigation.HedgeDelayMs,
				cfg.Mitigation.DegradedJoin)
		} else {
			fmt.Printf("mitigation: none (naive router waits out every fault)\n")
		}
	}
	if cfg.Chaos.Active() {
		doms := cfg.Chaos.Domains
		if doms == 0 {
			doms = o.nodes
		}
		fmt.Printf("chaos: %d failure domains, schedule %s\n", doms, cfg.Chaos.String())
		if !faulted && cfg.Mitigation.Active() {
			fmt.Printf("mitigation: timeout %g ms × %d retries, hedge %g ms, degraded joins %v\n",
				cfg.Mitigation.TimeoutMs, cfg.Mitigation.MaxRetries, cfg.Mitigation.HedgeDelayMs,
				cfg.Mitigation.DegradedJoin)
		}
	}
	if m := cfg.Mitigation; m.RetryBudget > 0 || m.BreakerTripRate > 0 {
		fmt.Printf("adaptive: retry budget %g of primaries, breaker trip %g (min %d samples, cooldown %g ms), epoch %g ms\n",
			m.RetryBudget, m.BreakerTripRate, m.BreakerMinSamples, m.BreakerCooldownMs, m.AdaptEpochMs)
	}
	fmt.Println()

	points, err := cluster.SweepReplication(cfg, spec.fractions)
	if err != nil {
		fatal(err)
	}
	if o.open {
		autoscaled := cfg.Open.Autoscale != nil
		chaosed := cfg.Chaos.Active()
		fmt.Printf("%-10s %-8s %11s %7s %11s %9s %9s %6s %9s",
			"replicate", "local %", "offered", "shed %", "goodput", "p95 (ms)", "p99 (ms)", "util", "viol min")
		if autoscaled {
			fmt.Printf(" %6s %4s %5s", "nodes", "ups", "downs")
		}
		if chaosed {
			fmt.Printf(" %9s %7s %6s %8s", "ttr (ms)", "avail %", "amp", "brk min")
		}
		fmt.Println()
		for _, p := range points {
			r := p.Result
			fmt.Printf("%-10.3f %-8.1f %11.0f %6.1f%% %11.0f %9.3f %9.3f %5.1f%% %9.1f",
				p.Fraction, 100*r.LocalFraction, r.OfferedQPS, 100*r.ShedRate, r.Goodput,
				r.P95, r.P99, 100*r.Utilization, r.SLAViolationMinutes)
			if autoscaled {
				fmt.Printf(" %6.2f %4d %5d", r.MeanActiveNodes, r.ScaleUps, r.ScaleDowns)
			}
			if chaosed {
				ttr := "never"
				if r.TimeToRecoverMs >= 0 {
					ttr = fmt.Sprintf("%.0f", r.TimeToRecoverMs)
				}
				fmt.Printf(" %9s %6.1f%% %6.2f %8.2f", ttr, 100*r.DomainAvailability,
					r.RetryAmplification, r.BreakerOpenMinutes)
			}
			fmt.Println()
		}
		fmt.Printf("\nopen-loop traffic does not wait for the system: offered load is a function of time,\nso overload shows up as shed queries and SLA-violation minutes instead of slower arrivals\n")
		return
	}
	fmt.Printf("%-10s %-9s %-14s %-8s %-8s %9s %9s %9s %6s",
		"replicate", "hot rows", "replica MB/nd", "local %", "fan-out", "p50 (ms)", "p95 (ms)", "p99 (ms)", "util")
	if faulted {
		fmt.Printf(" %8s %7s %8s %9s", "avail %", "compl", "hedge %", "retries/q")
	}
	fmt.Println()
	for _, p := range points {
		hotRows := 0
		if p.Fraction > 0 {
			hp, err := cluster.NewPlan(plan.Model, plan.Nodes, plan.Policy, p.Fraction, o.seed)
			if err != nil {
				fatal(err)
			}
			hotRows = hp.HotRows
		}
		r := p.Result
		fmt.Printf("%-10.3f %-9d %-14.2f %-8.1f %-8.2f %9.3f %9.3f %9.3f %5.1f%%",
			p.Fraction, hotRows, float64(r.ReplicaBytesPerNode)/1e6, 100*r.LocalFraction,
			r.MeanFanout, r.P50, r.P95, r.P99, 100*r.Utilization)
		if faulted {
			fmt.Printf(" %7.1f%% %7.4f %7.1f%% %9.2f", 100*r.Availability, r.Completeness,
				100*r.HedgeRate, r.RetriesPerQuery)
		}
		fmt.Println()
	}
	fmt.Printf("\nreplicating the hottest rows trades per-node replica memory for tail latency:\nhot lookups short-circuit the fan-out and are served cache-resident at the query's home node\n")
}

func parseFractions(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad replication fraction %q", part)
		}
		if !(f >= 0 && f <= 1) { // NaN fails too
			return nil, fmt.Errorf("replication fraction %g out of [0,1]", f)
		}
		out = append(out, f)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlrmcluster:", err)
	os.Exit(1)
}
