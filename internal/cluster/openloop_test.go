package cluster

import (
	"math"
	"strings"
	"testing"
	"time"

	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// openTestConfig wraps an OpenLoop spec in the standard small-cluster
// fixture. The closed-loop load knobs stay zero — that is the open-mode
// contract.
func openTestConfig(t *testing.T, nodes int, o *OpenLoop) Config {
	t.Helper()
	plan, err := NewPlan(testModel(), nodes, RowRange, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Plan:            plan,
		Hotness:         trace.HighHot,
		SamplesPerQuery: 8,
		Timing:          testTiming(),
		Net:             DefaultNetwork(),
		ServersPerNode:  2,
		JitterFrac:      0.08,
		Open:            o,
		Seed:            1,
	}
}

// openColdConfig is openTestConfig without hot-row replication, so the
// cold-path work estimate openRate calibrates against is exact — the
// overload tests need true utilization, not the replication-discounted
// one.
func openColdConfig(t *testing.T, nodes int, o *OpenLoop) Config {
	t.Helper()
	cfg := openTestConfig(t, nodes, o)
	plan, err := NewPlan(testModel(), nodes, RowRange, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Plan = plan
	return cfg
}

// openRate returns the arrival rate (queries/ms) loading the fixture
// cluster to the given utilization under the cold-path work estimate.
func openRate(t *testing.T, nodes int, util float64) float64 {
	t.Helper()
	plan, err := NewPlan(testModel(), nodes, RowRange, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	return 1 / ArrivalForUtilization(plan, testTiming(), 8, 2, util)
}

// TestAdmissionBoundary: the shed rule's boundary is strict — a backlog
// exactly at the budget is admitted, anything beyond sheds, and AdmitAll
// never sheds however deep the queue.
func TestAdmissionBoundary(t *testing.T) {
	a := Admission{Policy: ShedOverBudget, QueueBudgetMs: 5}
	if a.shed(0) || a.shed(4.999) || a.shed(5) {
		t.Error("backlog at or under the budget must be admitted")
	}
	if !a.shed(math.Nextafter(5, 6)) || !a.shed(5e6) {
		t.Error("backlog beyond the budget must shed")
	}
	if (Admission{}).shed(1e18) {
		t.Error("AdmitAll shed a query")
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	mk := func(seed uint64) Result {
		cfg := openTestConfig(t, 4, &OpenLoop{
			Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
			DurationMs: 400,
			SLAMs:      50,
			Admission:  Admission{Policy: ShedOverBudget, QueueBudgetMs: 10},
		})
		cfg.Seed = seed
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(1), mk(1)
	if a != b {
		t.Fatalf("open-loop simulation not deterministic:\n%+v\n%+v", a, b)
	}
	if c := mk(2); c == a {
		t.Fatal("different seeds produced identical open-loop results")
	}
}

// TestOpenLoopBaseline: a moderately loaded cluster with no shedding and
// a generous SLA serves everything — the open-loop metrics line up with
// the closed-loop invariants plus full goodput.
func TestOpenLoopBaseline(t *testing.T) {
	cfg := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 600,
		SLAMs:      100,
	})
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedRate != 0 {
		t.Errorf("AdmitAll shed %.3f of arrivals", res.ShedRate)
	}
	if res.OfferedQPS <= 0 || res.Goodput <= 0 || res.Goodput > res.OfferedQPS {
		t.Errorf("goodput %g outside (0, offered %g]", res.Goodput, res.OfferedQPS)
	}
	if !(res.P50 <= res.P95 && res.P95 <= res.P99) || res.Mean <= 0 {
		t.Errorf("degenerate latency summary: %+v", res)
	}
	if res.Availability != 1 || res.Completeness != 1 {
		t.Errorf("perfect fleet dropped work: availability %g completeness %g", res.Availability, res.Completeness)
	}
	if res.MeanActiveNodes != 4 {
		t.Errorf("static fleet reported %g active nodes", res.MeanActiveNodes)
	}
	if res.Utilization <= 0 || res.Utilization > 1.2 {
		t.Errorf("utilization %g implausible for a 0.5-sized load", res.Utilization)
	}
}

// TestOpenLoopPopulationLocality: a revisiting population with profile
// affinity raises LocalFraction above the replication-only baseline, and
// RevisitRate tracks the configured revisit probability.
func TestOpenLoopPopulationLocality(t *testing.T) {
	base := &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.4)},
		DurationMs: 600,
		SLAMs:      100,
	}
	noPop, err := Simulate(openTestConfig(t, 4, base))
	if err != nil {
		t.Fatal(err)
	}
	withPop := *base
	withPop.Population = &traffic.Population{
		Users: 1_000_000, RevisitProb: 0.7, Affinity: 0.6,
	}
	popRes, err := Simulate(openTestConfig(t, 4, &withPop))
	if err != nil {
		t.Fatal(err)
	}
	if noPop.RevisitRate != 0 {
		t.Errorf("population-free run reported revisit rate %g", noPop.RevisitRate)
	}
	if math.Abs(popRes.RevisitRate-0.7) > 0.05 {
		t.Errorf("revisit rate %g far from configured 0.7", popRes.RevisitRate)
	}
	if popRes.LocalFraction <= noPop.LocalFraction {
		t.Errorf("profile revisits did not raise locality: %g (population) vs %g (baseline)",
			popRes.LocalFraction, noPop.LocalFraction)
	}
}

// TestOpenLoopShedStormAndWarmup: one node, one server, a service time
// longer than the whole run, and a near-zero budget — the first (warmup)
// arrival is admitted and occupies the node forever, every post-warmup
// arrival sheds. This pins both the all-shed-storm edge (no NaNs, ratio
// metrics stay zero) and the warmup fix: the admitted warmup query
// completes within the SLA, and if warmup arrivals polluted the open-loop
// accounting the way cluster warmup once polluted MaxQueueWaitMs, Goodput
// would be positive and ShedRate below one.
func TestOpenLoopShedStormAndWarmup(t *testing.T) {
	plan, err := NewPlan(testModel(), 1, RowRange, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tm := Timing{ColdLookupUs: 50, HotLookupUs: 1, SubRequestUs: 5}
	workMs := QueryWorkMs(plan, tm, 2)
	duration := workMs / 2
	warmup := duration / 4
	o := &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: 200 / duration},
		DurationMs: duration,
		WarmupMs:   warmup,
		SLAMs:      3 * workMs,
		Admission:  Admission{Policy: ShedOverBudget, QueueBudgetMs: 1e-3},
	}
	cfg := Config{
		Plan: plan, Hotness: trace.HighHot, SamplesPerQuery: 2,
		Timing: tm, ServersPerNode: 1, Open: o, Seed: 1,
	}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedRate != 1 {
		t.Fatalf("expected a total post-warmup shed storm, got shed rate %g", res.ShedRate)
	}
	if res.Goodput != 0 {
		t.Errorf("warmup admission leaked into Goodput: %g", res.Goodput)
	}
	if res.SLAViolationMinutes != 0 {
		t.Errorf("shed queries charged as SLA violations: %g minutes", res.SLAViolationMinutes)
	}
	if res.P50 != 0 || res.P99 != 0 || res.Mean != 0 || res.MeanFanout != 0 ||
		res.Availability != 0 || res.Completeness != 0 {
		t.Errorf("all-shed storm left nonzero admitted-query metrics: %+v", res)
	}
	for name, v := range map[string]float64{
		"offered": res.OfferedQPS, "utilization": res.Utilization, "shed": res.ShedRate,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s is non-finite: %g", name, v)
		}
	}
	// Cross-check OfferedQPS against the stream the simulator derives:
	// exactly the arrivals in [warmup, duration), per second.
	ar := o.Arrivals
	ar.Seed = stats.SplitSeed(cfg.Seed^saltOpenArrivals, 0)
	stream, err := traffic.NewStream(ar)
	if err != nil {
		t.Fatal(err)
	}
	post := 0
	for {
		a := stream.Next()
		if a >= duration {
			break
		}
		if a >= warmup {
			post++
		}
	}
	if want := float64(post) / ((duration - warmup) / 1e3); res.OfferedQPS != want {
		t.Errorf("OfferedQPS %g, want %g from %d post-warmup arrivals", res.OfferedQPS, want, post)
	}
}

// TestOpenLoopZeroCapacityNode: a shard owner outside the active set
// serves nothing; its work routes down the standby chain and every query
// still joins completely.
func TestOpenLoopZeroCapacityNode(t *testing.T) {
	o := &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.3)},
		DurationMs: 500,
		SLAMs:      100,
		StartNodes: 3,
	}
	res, err := Simulate(openTestConfig(t, 4, o))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completeness != 1 || res.Availability != 1 {
		t.Errorf("zero-capacity owner lost lookups: completeness %g availability %g",
			res.Completeness, res.Availability)
	}
	if res.MeanActiveNodes != 3 {
		t.Errorf("active set %g, want 3", res.MeanActiveNodes)
	}
	full := *o
	full.StartNodes = 0
	allRes, err := Simulate(openTestConfig(t, 4, &full))
	if err != nil {
		t.Fatal(err)
	}
	if allRes.Mean == res.Mean {
		t.Error("removing a node's capacity left mean latency bit-identical")
	}
}

// TestOpenLoopAdmissionReducesViolations: under bursty overload, shedding
// over a queue budget trades arrivals for SLA compliance — fewer violated
// minutes than the no-shed baseline. This is the tentpole's headline
// property (also pinned in the golden table).
func TestOpenLoopAdmissionReducesViolations(t *testing.T) {
	mk := func(adm Admission) Result {
		o := &OpenLoop{
			Arrivals: traffic.Config{
				Model: traffic.MMPP, RatePerMs: openRate(t, 4, 0.9),
				BurstFactor: 3, BurstEveryMs: 80, BurstMeanMs: 40,
			},
			DurationMs: 800,
			SLAMs:      8,
			Admission:  adm,
		}
		res, err := Simulate(openColdConfig(t, 4, o))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noshed := mk(Admission{})
	shed := mk(Admission{Policy: ShedOverBudget, QueueBudgetMs: 2})
	if noshed.SLAViolationMinutes == 0 {
		t.Fatal("bursty overload produced no violations; the comparison is vacuous")
	}
	if shed.ShedRate <= 0 {
		t.Error("overload never tripped the queue budget")
	}
	if shed.SLAViolationMinutes >= noshed.SLAViolationMinutes {
		t.Errorf("shedding did not reduce violation minutes: %g (shed) vs %g (no-shed)",
			shed.SLAViolationMinutes, noshed.SLAViolationMinutes)
	}
}

// TestOpenLoopAutoscaler: a diurnal day drives the controller through
// scale-ups into the peak and drains after it, with queries in flight
// across every transition — completeness must hold through add/drain
// races, and the whole run stays deterministic.
func TestOpenLoopAutoscaler(t *testing.T) {
	mk := func() Result {
		o := &OpenLoop{
			Arrivals: traffic.Config{
				Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5),
				DayMs: 800, DiurnalAmp: 0.8,
			},
			DurationMs: 800,
			SLAMs:      50,
			StartNodes: 2,
			Autoscale: &Autoscaler{
				IntervalMs:    16,
				UpBacklogMs:   2,
				DownBacklogMs: 0.2,
				ProvisionMs:   16,
				MinNodes:      2,
				MaxNodes:      4,
			},
		}
		res, err := Simulate(openColdConfig(t, 4, o))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := mk()
	if res.ScaleUps == 0 {
		t.Error("diurnal peak never triggered a scale-up")
	}
	if res.ScaleDowns == 0 {
		t.Error("post-peak trough never triggered a drain")
	}
	if res.MeanActiveNodes <= 2 || res.MeanActiveNodes > 4 {
		t.Errorf("mean active nodes %g outside (2,4]", res.MeanActiveNodes)
	}
	if res.Completeness != 1 || res.Availability != 1 {
		t.Errorf("add/drain transitions lost in-flight work: completeness %g availability %g",
			res.Completeness, res.Availability)
	}
	if again := mk(); again != res {
		t.Fatalf("autoscaled run not deterministic:\n%+v\n%+v", res, again)
	}
}

// TestOpenLoopValidate: the collect-all front door reports every
// open-loop violation, and misplaced closed-loop knobs are errors.
func TestOpenLoopValidate(t *testing.T) {
	good := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: 1},
		DurationMs: 100,
		SLAMs:      10,
	})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid open-loop config rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"closed-loop knobs", func(c *Config) { c.Queries = 100; c.MeanArrivalMs = 1 }, "closed-loop load knobs"},
		{"traffic seed set", func(c *Config) { c.Open.Arrivals.Seed = 7 }, "traffic seed"},
		{"population seed set", func(c *Config) {
			c.Open.Population = &traffic.Population{Users: 10, Seed: 3}
		}, "population seed"},
		{"no duration", func(c *Config) { c.Open.DurationMs = 0 }, "positive duration"},
		{"warmup too long", func(c *Config) { c.Open.WarmupMs = 100 }, "warmup"},
		{"bad warmup", func(c *Config) { c.Open.WarmupMs = -3 }, "use -1"},
		{"no SLA", func(c *Config) { c.Open.SLAMs = 0 }, "SLA target"},
		{"budget without shed", func(c *Config) { c.Open.Admission.QueueBudgetMs = 5 }, "needs the shed"},
		{"shed without budget", func(c *Config) { c.Open.Admission.Policy = ShedOverBudget }, "positive queue budget"},
		{"start nodes overflow", func(c *Config) { c.Open.StartNodes = 9 }, "start nodes"},
		{"autoscaler thresholds", func(c *Config) {
			c.Open.Autoscale = &Autoscaler{IntervalMs: 10, UpBacklogMs: 1, DownBacklogMs: 2}
		}, "below scale-up"},
		{"autoscaler floor above cap", func(c *Config) {
			c.Open.Autoscale = &Autoscaler{IntervalMs: 10, UpBacklogMs: 5, MinNodes: 3, MaxNodes: 2}
		}, "floor 3 above cap 2"},
		{"start below floor", func(c *Config) {
			c.Open.StartNodes = 1
			c.Open.Autoscale = &Autoscaler{IntervalMs: 10, UpBacklogMs: 5, MinNodes: 2}
		}, "below autoscaler floor"},
		{"bad arrivals", func(c *Config) { c.Open.Arrivals.RatePerMs = 0 }, "arrival rate"},
		{"NaN duration", func(c *Config) { c.Open.DurationMs = math.NaN() }, "positive duration"},
		{"infinite duration", func(c *Config) { c.Open.DurationMs = math.Inf(1) }, "positive duration"},
		{"NaN warmup", func(c *Config) { c.Open.WarmupMs = math.NaN() }, "use -1"},
		{"NaN SLA", func(c *Config) { c.Open.SLAMs = math.NaN() }, "SLA target"},
		{"infinite queue budget", func(c *Config) {
			c.Open.Admission = Admission{Policy: ShedOverBudget, QueueBudgetMs: math.Inf(1)}
		}, "positive queue budget"},
		{"NaN autoscaler interval", func(c *Config) {
			c.Open.Autoscale = &Autoscaler{IntervalMs: math.NaN(), UpBacklogMs: 5}
		}, "control interval"},
		{"NaN scale-up threshold", func(c *Config) {
			c.Open.Autoscale = &Autoscaler{IntervalMs: 10, UpBacklogMs: math.NaN()}
		}, "scale-up backlog"},
		{"NaN scale-down threshold", func(c *Config) {
			c.Open.Autoscale = &Autoscaler{IntervalMs: 10, UpBacklogMs: 5, DownBacklogMs: math.NaN()}
		}, "scale-down threshold"},
		{"infinite provisioning", func(c *Config) {
			c.Open.Autoscale = &Autoscaler{IntervalMs: 10, UpBacklogMs: 5, ProvisionMs: math.Inf(1)}
		}, "provisioning delay"},
	} {
		cfg := openTestConfig(t, 4, &OpenLoop{
			Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: 1},
			DurationMs: 100,
			SLAMs:      10,
		})
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
		if _, simErr := Simulate(cfg); simErr == nil {
			t.Errorf("%s: Simulate accepted what Validate rejects", tc.name)
		}
	}
}

// TestOpenLoopStreamProbesTerminate: an open loop over a stream whose
// Next once never returned either is rejected (a thinning peak that
// overflows to +Inf) or runs to completion (a candidate clock that
// overflows to +Inf before the first arrival lands in the horizon).
func TestOpenLoopStreamProbesTerminate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ar     traffic.Config
		reject bool
	}{
		{"mmpp peak overflows", traffic.Config{Model: traffic.MMPP, RatePerMs: 1e200, BurstFactor: 1e200, BurstEveryMs: 10, BurstMeanMs: 1}, true},
		{"tiny diurnal rate", traffic.Config{RatePerMs: 1e-306, DayMs: 100, DiurnalAmp: 0.5}, false},
	} {
		cfg := openTestConfig(t, 4, &OpenLoop{Arrivals: tc.ar, DurationMs: 100, SLAMs: 10})
		if err := cfg.Validate(); (err != nil) != tc.reject {
			t.Errorf("%s: Validate error %v, want rejected=%v", tc.name, err, tc.reject)
			continue
		}
		done := make(chan error, 1)
		go func() {
			_, err := Simulate(cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if (err != nil) != tc.reject {
				t.Errorf("%s: Simulate error %v, want rejected=%v", tc.name, err, tc.reject)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Simulate still running after 10 s", tc.name)
		}
	}
}

// TestOpenLoopValidateCollectsAll: one config, many violations, one
// error report naming each. Without a plan (nodes 0) the node-range
// checks are skipped, so a nil plan is the only error a config that
// sets node counts gets for them.
func TestOpenLoopValidateCollectsAll(t *testing.T) {
	valid := func() *OpenLoop {
		return &OpenLoop{
			Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: 1},
			DurationMs: 100,
			SLAMs:      10,
		}
	}
	for _, tc := range []struct {
		name    string
		open    func() *OpenLoop
		noPlan  bool
		want    []string
		notWant []string
	}{
		{"five violations", func() *OpenLoop {
			return &OpenLoop{
				Arrivals:  traffic.Config{Model: traffic.Poisson, RatePerMs: -1, Seed: 5},
				SLAMs:     -2,
				Admission: Admission{Policy: AdmissionPolicy(9)},
			}
		}, false, []string{"arrival rate", "traffic seed", "positive duration", "SLA target", "admission policy"}, nil},
		{"nil plan with start nodes", func() *OpenLoop {
			o := valid()
			o.StartNodes = 3
			return o
		}, true, []string{"nil plan"}, []string{"start nodes"}},
		{"nil plan with default autoscaler", func() *OpenLoop {
			o := valid()
			o.Autoscale = &Autoscaler{IntervalMs: 10, UpBacklogMs: 5}
			return o
		}, true, []string{"nil plan"}, []string{"autoscaler floor", "autoscaler cap"}},
		{"nil plan with autoscaler floor", func() *OpenLoop {
			o := valid()
			o.Autoscale = &Autoscaler{IntervalMs: 10, UpBacklogMs: 5, MinNodes: 2}
			return o
		}, true, []string{"nil plan"}, []string{"autoscaler floor", "start nodes"}},
		{"nil plan keeps structural autoscaler checks", func() *OpenLoop {
			o := valid()
			o.Autoscale = &Autoscaler{IntervalMs: 10, UpBacklogMs: 5, MinNodes: 3, MaxNodes: 2}
			return o
		}, true, []string{"nil plan", "floor 3 above cap 2"}, []string{"outside [0,0]"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := openTestConfig(t, 4, tc.open())
			if tc.noPlan {
				cfg.Plan = nil
			}
			err := cfg.Validate()
			if err == nil {
				t.Fatal("accepted a bad config")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error missing %q:\n%v", want, err)
				}
			}
			for _, bad := range tc.notWant {
				if strings.Contains(err.Error(), bad) {
					t.Errorf("error has %q:\n%v", bad, err)
				}
			}
		})
	}
}

// TestOpenLoopConfigNotMutated pins the clone-before-defaults behavior:
// Simulate receives the Config by value but Open is a pointer, and a
// replication sweep reuses one OpenLoop across points. Without cloning,
// resolving WarmupMs -1 → 0 on the first run would turn into the 5%
// default on the second, silently changing its metrics window.
func TestOpenLoopConfigNotMutated(t *testing.T) {
	o := &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 40,
		WarmupMs:   -1,
		SLAMs:      5,
		Admission:  Admission{Policy: ShedOverBudget, QueueBudgetMs: 2},
		Autoscale: &Autoscaler{
			IntervalMs: 5, UpBacklogMs: 1, DownBacklogMs: 0.1, ProvisionMs: 5,
		},
	}
	first, err := Simulate(openTestConfig(t, 4, o))
	if err != nil {
		t.Fatal(err)
	}
	if o.WarmupMs != -1 || o.StartNodes != 0 {
		t.Fatalf("Simulate mutated the caller's OpenLoop: warmup %g, start nodes %d", o.WarmupMs, o.StartNodes)
	}
	if o.Autoscale.MinNodes != 0 || o.Autoscale.MaxNodes != 0 {
		t.Fatalf("Simulate mutated the caller's Autoscaler: min %d, max %d", o.Autoscale.MinNodes, o.Autoscale.MaxNodes)
	}
	second, err := Simulate(openTestConfig(t, 4, o))
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("rerun with a reused OpenLoop differs:\nfirst  %+v\nsecond %+v", first, second)
	}
	// The fixture plan replicates 1% of rows, so the matching sweep point
	// is 0.01; running it after a fraction-0 point exercises the reuse.
	points, err := SweepReplication(openTestConfig(t, 4, o), []float64{0, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if points[1].Result != first {
		t.Fatalf("sweep point f=0.01 differs from a direct run:\nsweep  %+v\ndirect %+v", points[1].Result, first)
	}
}
