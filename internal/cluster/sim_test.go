package cluster

import (
	"strings"
	"testing"

	"dlrmsim/internal/pin"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

func testTiming() Timing {
	return Timing{ColdLookupUs: 2, HotLookupUs: 0.1, SubRequestUs: 5, DenseMs: 0.05}
}

func testConfig(t *testing.T, nodes int, policy Policy, frac float64, h trace.Hotness) Config {
	t.Helper()
	plan, err := NewPlan(testModel(), nodes, policy, frac, 1)
	if err != nil {
		t.Fatal(err)
	}
	tm := testTiming()
	return Config{
		Plan:            plan,
		Hotness:         h,
		SamplesPerQuery: 8,
		Timing:          tm,
		Net:             DefaultNetwork(),
		ServersPerNode:  2,
		MeanArrivalMs:   ArrivalForUtilization(plan, tm, 8, 2, 0.55),
		JitterFrac:      0.08,
		Queries:         2000,
		Seed:            1,
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := testConfig(t, 4, RowRange, 0.01, trace.HighHot)
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestPercentileOrdering(t *testing.T) {
	res, err := Simulate(testConfig(t, 4, RowRange, 0, trace.MediumHot))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P50 <= res.P95 && res.P95 <= res.P99) {
		t.Fatalf("percentiles out of order: %g %g %g", res.P50, res.P95, res.P99)
	}
	if res.Mean <= 0 || res.MeanFanout < 1 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

// TestReplicationImprovesHighHotTail is the subsystem's headline claim
// (and the PR's acceptance criterion): under the High-hotness trace, p95
// improves (or stays flat) monotonically as the replication fraction
// grows, while the replication memory cost rises.
func TestReplicationImprovesHighHotTail(t *testing.T) {
	cfg := testConfig(t, 8, RowRange, 0, trace.HighHot)
	points, err := SweepReplication(cfg, []float64{0, 0.001, 0.01, 0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		if cur.Result.P95 > prev.Result.P95 {
			t.Errorf("p95 regressed as replication grew: f=%g → %.4f ms, f=%g → %.4f ms",
				prev.Fraction, prev.Result.P95, cur.Fraction, cur.Result.P95)
		}
		if cur.Result.ReplicaBytesPerNode < prev.Result.ReplicaBytesPerNode {
			t.Errorf("replica memory shrank as f grew: f=%g", cur.Fraction)
		}
		if cur.Result.LocalFraction < prev.Result.LocalFraction {
			t.Errorf("local fraction shrank as f grew: f=%g", cur.Fraction)
		}
	}
	first, last := points[0].Result, points[len(points)-1].Result
	if last.P95 >= first.P95 {
		t.Errorf("replication never helped: p95 %.4f → %.4f ms", first.P95, last.P95)
	}
	if last.LocalFraction < 0.5 {
		t.Errorf("High-hot trace with 20%% replication serves only %.1f%% locally", 100*last.LocalFraction)
	}
	if last.MeanFanout >= first.MeanFanout {
		t.Errorf("replication did not shrink fan-out: %.2f → %.2f", first.MeanFanout, last.MeanFanout)
	}
}

func TestReplicationBarelyHelpsRandomAccess(t *testing.T) {
	cfg := testConfig(t, 8, RowRange, 0, trace.RandomAccess)
	points, err := SweepReplication(cfg, []float64{0, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform traffic puts ~f of lookups on replicas — replication buys
	// almost nothing, unlike the skewed classes.
	if lf := points[1].Result.LocalFraction; lf > 0.05 {
		t.Errorf("random access served %.1f%% locally at f=0.01", 100*lf)
	}
}

func TestTableWiseFanoutBounded(t *testing.T) {
	cfg := testConfig(t, 8, TableWise, 0, trace.MediumHot)
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	max := float64(cfg.Plan.Model.Tables)
	if res.MeanFanout > max {
		t.Fatalf("table-wise fan-out %.2f exceeds table count %g", res.MeanFanout, max)
	}
}

func TestMoreNodesReduceUtilization(t *testing.T) {
	small := testConfig(t, 2, RowRange, 0, trace.MediumHot)
	big := testConfig(t, 8, RowRange, 0, trace.MediumHot)
	big.MeanArrivalMs = small.MeanArrivalMs // fixed offered load
	rs, err := Simulate(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Utilization >= rs.Utilization {
		t.Fatalf("4x nodes did not reduce utilization: %.3f vs %.3f", rb.Utilization, rs.Utilization)
	}
}

func TestNetworkCostRaisesLatency(t *testing.T) {
	free := testConfig(t, 4, RowRange, 0, trace.MediumHot)
	free.Net = Network{}
	slow := testConfig(t, 4, RowRange, 0, trace.MediumHot)
	slow.Net = Network{LatencyMs: 0.5, BandwidthGBs: 1}
	rf, err := Simulate(free)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.P50 <= rf.P50 {
		t.Fatalf("network hop cost did not raise latency: %.4f vs %.4f", rs.P50, rf.P50)
	}
}

func TestTransferMs(t *testing.T) {
	n := Network{LatencyMs: 0.05, BandwidthGBs: 10}
	if got := n.TransferMs(10_000_000); got != 1 {
		t.Fatalf("10 MB at 10 GB/s = %g ms, want 1", got)
	}
	if got := (Network{}).TransferMs(1 << 30); got != 0 {
		t.Fatalf("zero-bandwidth network charged %g ms", got)
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(t, 4, RowRange, 0, trace.MediumHot)
	bad := good
	bad.Plan = nil
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted nil plan")
	}
	bad = good
	bad.SamplesPerQuery = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted zero samples")
	}
	bad = good
	bad.MeanArrivalMs = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted zero arrival")
	}
	bad = good
	bad.Timing.ColdLookupUs = 0
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted zero lookup cost")
	}
	bad = good
	bad.Queries = 10
	bad.WarmupQueries = 10
	if _, err := Simulate(bad); err == nil {
		t.Error("accepted warmup >= queries")
	}
	if _, err := SweepReplication(good, nil); err == nil {
		t.Error("accepted empty sweep")
	}
}

// overlapSchedule spans a run horizon with chaos windows that overlap on
// one domain: two slowdowns with different factors (the higher one
// first, so the overlap must take the max, not the latest) and two
// outages, plus a partition between the domains. No other pinned config
// overlaps chaos slowdowns.
func overlapSchedule(horizon float64) ChaosSchedule {
	h := horizon
	return ChaosSchedule{Domains: 2, Events: []ChaosEvent{
		{Kind: DomainSlowdown, Domain: 0, AtMs: 0.1 * h, ForMs: 0.4 * h, Factor: 5},
		{Kind: DomainOutage, Domain: 1, AtMs: 0.2 * h, ForMs: 0.2 * h},
		{Kind: DomainSlowdown, Domain: 0, AtMs: 0.3 * h, ForMs: 0.3 * h, Factor: 3},
		{Kind: DomainOutage, Domain: 1, AtMs: 0.3 * h, ForMs: 0.2 * h},
		{Kind: Partition, Domain: 0, Peer: 1, AtMs: 0.35 * h, ForMs: 0.1 * h},
	}}
}

// chaosOverlapConfig layers overlapSchedule over the stochastic fault
// model's slowdowns, outages and drops, with hedging.
func chaosOverlapConfig(t *testing.T) Config {
	t.Helper()
	cfg := faultConfig(t, trace.MediumHot)
	cfg.Mitigation = Mitigation{HedgeDelayMs: hedgeDelay(t, trace.MediumHot)}
	cfg.Chaos = overlapSchedule(cfg.MeanArrivalMs * float64(cfg.Queries))
	return cfg
}

// TestClosedLoopResultsPinned pins every Result field of closed-loop
// output bit-for-bit, in testdata/closed_loop.pin, on the benchmark
// fixtures and every exec-suite config. The goldens hold only a few
// fields to 1e-9, so this is the tier-1 guard that a change to the
// driver, the copy order, or the summary leaves every Result field exactly
// where it was.
func TestClosedLoopResultsPinned(t *testing.T) {
	cfgs := execConfigs(t)
	cfgs["bench-steady"] = benchConfig(t, false)
	cfgs["bench-faulted"] = benchConfig(t, true)
	cfgs["chaos-overlap"] = chaosOverlapConfig(t)
	results := map[string]Result{}
	for name, cfg := range cfgs {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
	}
	pin.Check(t, "closed_loop", results)
}

// TestOpenLoopResultsPinned pins open-loop output bit-for-bit, in
// testdata/open_loop.pin, on every exec-suite config plus one that
// layers the stochastic fault model under a chaos schedule with
// overlapping windows — the open-loop counterpart of
// TestClosedLoopResultsPinned. Each config is pinned in
// both summary modes: the exact samples and, as "<name>-stream", the
// stream-stats sketch.
func TestOpenLoopResultsPinned(t *testing.T) {
	cfgs := openExecConfigs(t)
	mixed := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 500,
		SLAMs:      50,
	})
	mixed.Faults = testFaults()
	mixed.Chaos = overlapSchedule(500)
	mixed.Mitigation = Mitigation{TimeoutMs: hedgeDelay(t, trace.HighHot) * 2, MaxRetries: 1, DegradedJoin: true}
	cfgs["faults-chaos"] = mixed
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	for _, name := range names {
		stream := cfgs[name]
		o := *stream.Open
		o.StreamStats = true
		stream.Open = &o
		cfgs[name+"-stream"] = stream
	}
	results := map[string]Result{}
	for name, cfg := range cfgs {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
		if strings.HasPrefix(name, "shed") && res.ShedRate == 0 {
			t.Errorf("%s: fixture never sheds, so it does not exercise admission", name)
		}
	}
	pin.Check(t, "open_loop", results)
}
