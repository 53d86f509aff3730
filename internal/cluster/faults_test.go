package cluster

import (
	"math"
	"testing"

	"dlrmsim/internal/serve"
	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
)

// testFaults models rare-but-severe node trouble: occasional factor-6
// slowdown episodes, rarer outage windows, and 2% transit loss. Episodes
// are spaced far enough apart that a node drains its backlog before the
// next one — the regime where the tail is fault-dominated and mitigation
// can route around the sick node.
func testFaults() FaultModel {
	return FaultModel{
		SlowdownEveryMs: 200,
		SlowdownMeanMs:  10,
		SlowdownFactor:  6,
		DownEveryMs:     300,
		DownMeanMs:      4,
		DropProb:        0.02,
	}
}

// faultConfig is testConfig at half load with testFaults injected. At
// half load a factor-6 slowdown episode still saturates its node (offered
// ×6 > 1) and builds a backlog, but the fleet drains it between episodes
// — faults visibly hurt the tail, and mitigation traffic (hedges,
// retries) fits in the spare capacity instead of tipping the fleet into a
// retry storm.
func faultConfig(t *testing.T, h trace.Hotness) Config {
	t.Helper()
	cfg := testConfig(t, 4, RowRange, 0.01, h)
	cfg.MeanArrivalMs *= 2
	cfg.Faults = testFaults()
	return cfg
}

// cleanBaseline runs faultConfig's load with no faults — the reference
// the mitigation policies calibrate their deadlines against. Calibrating
// off the healthy tail (not the faulted median) is the point: a policy
// tuned to the faulted distribution fires far too late to help.
func cleanBaseline(t *testing.T, h trace.Hotness) Result {
	t.Helper()
	cfg := faultConfig(t, h)
	cfg.Faults = FaultModel{}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCleanFleetReportsPerfectRobustness(t *testing.T) {
	res, err := Simulate(testConfig(t, 4, RowRange, 0.01, trace.MediumHot))
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability != 1 || res.Completeness != 1 {
		t.Errorf("clean fleet availability %g, completeness %g, want 1, 1", res.Availability, res.Completeness)
	}
	if res.HedgeRate != 0 || res.RetriesPerQuery != 0 {
		t.Errorf("clean fleet hedges %g, retries %g, want 0, 0", res.HedgeRate, res.RetriesPerQuery)
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	cfg := faultConfig(t, trace.HighHot)
	cfg.Mitigation = Mitigation{TimeoutMs: 2, MaxRetries: 2, HedgeDelayMs: 0.5, DegradedJoin: true}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fault-injected simulation not deterministic:\n%+v\n%+v", a, b)
	}
	cfg.Seed++
	c, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed produced identical fault-injected result")
	}
}

func TestFaultsWidenTail(t *testing.T) {
	clean, err := Simulate(testConfig(t, 4, RowRange, 0.01, trace.MediumHot))
	if err != nil {
		t.Fatal(err)
	}
	// Each fault class alone should hurt the tail of the naive router.
	classes := map[string]FaultModel{
		"slowdown": {SlowdownEveryMs: 40, SlowdownMeanMs: 8, SlowdownFactor: 6},
		"outage":   {DownEveryMs: 150, DownMeanMs: 4},
		"drop":     {DropProb: 0.05},
	}
	for name, fm := range classes {
		cfg := testConfig(t, 4, RowRange, 0.01, trace.MediumHot)
		cfg.Faults = fm
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.P99 <= clean.P99 {
			t.Errorf("%s faults did not widen p99: %.4f vs clean %.4f", name, res.P99, clean.P99)
		}
		// The naive router never loses data — it waits (or re-sends).
		if res.Availability != 1 || res.Completeness != 1 {
			t.Errorf("%s faults broke completeness on the naive router: avail %g compl %g",
				name, res.Availability, res.Completeness)
		}
	}
}

func TestNaiveRouterResendsDrops(t *testing.T) {
	cfg := testConfig(t, 4, RowRange, 0.01, trace.MediumHot)
	cfg.Faults = FaultModel{DropProb: 0.1}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetriesPerQuery <= 0 {
		t.Fatal("10% drops produced zero transport re-sends")
	}
	if res.HedgeRate != 0 {
		t.Fatalf("naive router hedged: %g", res.HedgeRate)
	}
}

func TestHedgingFiresAndHelps(t *testing.T) {
	clean := cleanBaseline(t, trace.MediumHot)
	none := faultConfig(t, trace.MediumHot)
	res0, err := Simulate(none)
	if err != nil {
		t.Fatal(err)
	}
	hedged := faultConfig(t, trace.MediumHot)
	hedged.Mitigation = Mitigation{HedgeDelayMs: 2 * clean.P95}
	res1, err := Simulate(hedged)
	if err != nil {
		t.Fatal(err)
	}
	if res1.HedgeRate <= 0 {
		t.Fatal("hedging never fired under faults")
	}
	if res1.HedgeRate > 0.5 {
		t.Fatalf("hedge rate %.2f implausibly high for a 2×(clean p95) delay", res1.HedgeRate)
	}
	if res1.P99 >= res0.P99 {
		t.Errorf("hedged p99 %.4f did not beat naive p99 %.4f", res1.P99, res0.P99)
	}
	if res1.Availability != 1 || res1.Completeness != 1 {
		t.Errorf("hedging lost data: avail %g compl %g", res1.Availability, res1.Completeness)
	}
}

func TestTimeoutRetryHelpsUnderFaults(t *testing.T) {
	clean := cleanBaseline(t, trace.MediumHot)
	none := faultConfig(t, trace.MediumHot)
	res0, err := Simulate(none)
	if err != nil {
		t.Fatal(err)
	}
	retry := faultConfig(t, trace.MediumHot)
	retry.Mitigation = Mitigation{TimeoutMs: 2 * clean.P95, MaxRetries: 3}
	res1, err := Simulate(retry)
	if err != nil {
		t.Fatal(err)
	}
	if res1.RetriesPerQuery <= 0 {
		t.Fatal("timeout retries never fired under faults")
	}
	if res1.P99 >= res0.P99 {
		t.Errorf("retry p99 %.4f did not beat naive p99 %.4f", res1.P99, res0.P99)
	}
}

func TestDegradedJoinTradesCompletenessForBoundedTail(t *testing.T) {
	clean := cleanBaseline(t, trace.MediumHot)
	base, err := Simulate(faultConfig(t, trace.MediumHot))
	if err != nil {
		t.Fatal(err)
	}
	deg := faultConfig(t, trace.MediumHot)
	deg.Mitigation = Mitigation{TimeoutMs: 4 * clean.P95, MaxRetries: 1, DegradedJoin: true}
	res, err := Simulate(deg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability >= 1 || res.Completeness >= 1 {
		t.Fatalf("degraded joins never gave anything up: avail %g compl %g", res.Availability, res.Completeness)
	}
	if res.Completeness < 0.9 {
		t.Fatalf("degraded joins gave up %.1f%% of lookups — deadline too tight for the test config", 100*(1-res.Completeness))
	}
	// Every sub-request resolves by dispatch+(MaxRetries+1)·Timeout, so
	// the query tail is bounded by the deadline chain plus the dense
	// stage — the whole point of a degraded join.
	bound := float64(deg.Mitigation.MaxRetries+1)*deg.Mitigation.TimeoutMs + deg.Timing.DenseMs
	if res.P99 > bound+1e-9 {
		t.Errorf("degraded p99 %.4f exceeds the deadline bound %.4f", res.P99, bound)
	}
	if res.P99 >= base.P99 {
		t.Errorf("degraded p99 %.4f did not beat naive p99 %.4f", res.P99, base.P99)
	}
}

func TestMitigationValidation(t *testing.T) {
	good := faultConfig(t, trace.MediumHot)
	bad := good
	bad.Faults.DropProb = 1
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted certain drop")
	}
	bad = good
	bad.Faults.SlowdownEveryMs = 10
	bad.Faults.SlowdownMeanMs = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted slowdown episodes with zero duration")
	}
	bad = good
	bad.Faults.SlowdownFactor = 0.5
	bad.Faults.SlowdownMeanMs = 1
	bad.Faults.SlowdownEveryMs = 10
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted slowdown factor < 1")
	}
	bad = good
	bad.Mitigation = Mitigation{MaxRetries: 2}
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted retries without a timeout")
	}
	bad = good
	bad.Mitigation = Mitigation{DegradedJoin: true}
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted degraded joins without a timeout")
	}
	bad = good
	bad.Mitigation = Mitigation{TimeoutMs: -1}
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted negative timeout")
	}
}

// TestWarmupWaitsExcluded pins the satellite fix: MaxQueueWaitMs must
// measure post-warmup sub-requests only, matching serve.Simulate — before
// the fix, warmup queries' queueing spikes leaked into the metric, so a
// run whose worst wait fell inside the warmup window reported a larger
// MaxQueueWaitMs than the same run measured post-warmup only.
func TestWarmupWaitsExcluded(t *testing.T) {
	mk := func(warmup int) Config {
		cfg := testConfig(t, 4, RowRange, 0, trace.MediumHot)
		cfg.Queries = 400
		cfg.WarmupQueries = warmup
		return cfg
	}
	full, err := Simulate(mk(-1)) // explicit zero warmup: every wait counts
	if err != nil {
		t.Fatal(err)
	}
	// Scan warmup lengths for one whose window contains the global worst
	// wait; with a 400-query run and the worst wait rarely in the final
	// few queries, some prefix qualifies.
	for _, warmup := range []int{350, 300, 200, 100} {
		trimmed, err := Simulate(mk(warmup))
		if err != nil {
			t.Fatal(err)
		}
		if trimmed.MaxQueueWaitMs > full.MaxQueueWaitMs {
			t.Fatalf("post-warmup max wait %.4f exceeds full-run max %.4f",
				trimmed.MaxQueueWaitMs, full.MaxQueueWaitMs)
		}
		if trimmed.MaxQueueWaitMs < full.MaxQueueWaitMs {
			return // the fix is observable: warmup spike excluded
		}
	}
	t.Fatal("no warmup window excluded the worst wait — metric still counts warmup queries")
}

// TestExplicitZeroWarmupQueries: 0 means unset (5% default), -1 means
// explicitly zero, other negatives are rejected.
func TestExplicitZeroWarmupQueries(t *testing.T) {
	cfg := testConfig(t, 4, RowRange, 0, trace.MediumHot)
	cfg.WarmupQueries = -1
	zero, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("explicit-zero warmup rejected: %v", err)
	}
	cfg.WarmupQueries = 0
	def, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if zero == def {
		t.Fatal("explicit-zero warmup produced the same result as the 5% default")
	}
	cfg.WarmupQueries = -2
	if _, err := Simulate(cfg); err == nil {
		t.Fatal("accepted warmup -2")
	}
}

// factorAt returns the slowdown factor a timeline applies at t (1
// outside every window).
func factorAt(tl *stats.Timeline, t float64) float64 {
	if w, in := tl.At(t); in {
		return w.Factor
	}
	return 1
}

// TestFaultApplyComposition pins how one copy meets both fault sources:
// the service time is multiplied by each source's factor in turn,
// (svc·f1)·f2, never by their product, which rounds differently for
// about half of all svc; and a chaos outage open at the arrival holds
// the queue shut to its end.
func TestFaultApplyComposition(t *testing.T) {
	var fs faultState
	fs.init(&Config{
		Faults: FaultModel{SlowdownEveryMs: 10, SlowdownMeanMs: 10, SlowdownFactor: 6},
		Chaos: ChaosSchedule{Events: []ChaosEvent{
			{Kind: DomainSlowdown, Domain: 0, AtMs: 0, ForMs: 1e6, Factor: 5},
			{Kind: DomainOutage, Domain: 0, AtMs: 1e6, ForMs: 1},
		}},
		Seed: 1,
	}, 2)
	tl := &fs.nodes[0].slow[srcStochastic]
	tl.Extend(100)
	at := (tl.Win[0].Start + tl.Win[0].End) / 2
	svc := 0.1
	for (svc*6)*5 == svc*30 {
		svc = math.Nextafter(svc, 1)
	}
	q := serve.NewQueue(1)
	if got, want := fs.apply(0, at, q, svc), (svc*6)*5; got != want {
		t.Errorf("apply(svc %v) = %v, want (svc·6)·5 = %v", svc, got, want)
	}
	fs.apply(0, 1e6+0.5, q, svc)
	if ef := q.EarliestFree(); ef != 1e6+1 {
		t.Errorf("queue free at %v after a chaos outage to %v", ef, 1e6+1)
	}
}

// TestFaultsOffMatchesLegacyPath: an explicitly zero FaultModel and
// Mitigation must reproduce the unconfigured simulation exactly.
func TestFaultsOffMatchesLegacyPath(t *testing.T) {
	plain := testConfig(t, 4, RowRange, 0.01, trace.HighHot)
	res0, err := Simulate(plain)
	if err != nil {
		t.Fatal(err)
	}
	withZero := plain
	withZero.Faults = FaultModel{}
	withZero.Mitigation = Mitigation{}
	res1, err := Simulate(withZero)
	if err != nil {
		t.Fatal(err)
	}
	if res0 != res1 {
		t.Fatalf("zero fault config changed results:\n%+v\n%+v", res0, res1)
	}
	if math.IsNaN(res0.P99) {
		t.Fatal("NaN latency")
	}
}
