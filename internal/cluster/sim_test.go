package cluster

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

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

// closedLoopPins holds the SHA-256 of fmt.Sprintf("%+v", res) — every
// Result field, floats at full round-trip precision — for each pinned
// closed-loop config.
var closedLoopPins = map[string]string{
	"plain":          "df4a730f9fb2b8442f5d849502cee13bb432d625fec88e05b12515fc1d707749",
	"faults":         "016a77d6d4a06be3ca2b3dd216f6ff641ac6d1e86f7a06068775a17368b09d3a",
	"hedge":          "5fc75703df9730637da41c087f2d47004cecd7206d90b76b2cf73696b4824a73",
	"retries":        "8655dfa2813e8209d1ee3985e7ff0156c0ca92844415a196b3ddfcfdcc722a43",
	"free-network":   "97d21e34ebe2d0b76d3433b0e3afebaedd354751bbcb7aff6dd1d6223eed66dd",
	"chaos":          "3331f80c27d0a8df7b7d7cc56bcf3593c6a2172cbbeaef35bfa2540fb7f70efa",
	"chaos-adaptive": "cc36d5325dd79ab17eb62e6a773022b21958dec0e14d78c41da1a603b2ba6ab4",
	"bench-steady":   "d7faaeab5623e093da1c648b3c5d96a1046f9b7d9e4ed5d6ccdacebd1c78be41",
	"bench-faulted":  "8206b8f3630bb64f0e12f85bd18add017f83cb7584fd0e93d005bdcd7638df48",
	"chaos-overlap":  "1fed61727399ca18abf7b90a6353211ee6d6bc5d9e9af068edd2071f2201a535",
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

// TestClosedLoopResultsPinned pins closed-loop output bit-for-bit on the
// benchmark fixtures and every exec-suite config. The goldens hold only a
// few fields to 1e-9, so this is the tier-1 guard that a change to the
// driver, the copy order, or the summary leaves every Result field exactly
// where it was.
func TestClosedLoopResultsPinned(t *testing.T) {
	cfgs := execConfigs(t)
	cfgs["bench-steady"] = benchConfig(t, false)
	cfgs["bench-faulted"] = benchConfig(t, true)
	cfgs["chaos-overlap"] = chaosOverlapConfig(t)
	for name, cfg := range cfgs {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res))))
		if want := closedLoopPins[name]; got != want {
			t.Errorf("%s: result digest %s, pinned %s:\n%+v", name, got, want, res)
		}
	}
}

// openLoopPins holds the SHA-256 of fmt.Sprintf("%+v", res) for each
// pinned open-loop config, as closedLoopPins does for the closed loop.
var openLoopPins = map[string]string{
	"plain":          "936cb76d8b9d0a5c528219a0e195d5e63f01d5a0c93f5c4463b69558f6d26d59",
	"shed":           "4052965c3ec68abac7bdaa849a41d13aac9c2dea323bf943cfd46a188114cef7",
	"burst-shed":     "6523240e44cdd422dfc26bd2ab471ee6458981e3ae8b9fe58c353e2a2b517395",
	"autoscale":      "3fd2679a04a15c866816505c19e9f533fb0333db98bf5c9d68057458c26d22c9",
	"population":     "cf3a81efd02a4a8eb5451ca255bdea40ad211fda84fb6ffcba0104553ee22fdd",
	"faults":         "e51377b07657005d0cac212eee78ea210f890f5485cdca76c9beab921c57d06d",
	"chaos-adaptive": "a76a518585e5d791df18ce013d8df5c71e465c87b63759c1d1fbafdf2bf65b71",
	"faults-chaos":   "d7ae69eff43c2e920dc7c610fa86e38579070053e548a292e14f0ee3e7a2474b",

	"plain-stream":          "872e423ade27d96350d276637d49e413d77a19cbf1dc300e92f52f93b3cb6326",
	"shed-stream":           "07f1a4e0b505913e960e0f3f292a19db8adbc34cafcc53e6c1f325d087e302b3",
	"burst-shed-stream":     "876616102fea8d22f2b3a6c611e9c7c225e25202f4e496ee208a6d232f5a2ab2",
	"autoscale-stream":      "454e0d798b63ae5be8c1d3808d4385b27a1441f33601f5f08bfbe6567d4a12e7",
	"population-stream":     "734713654caac349ba55bd7a1bd15da6789f6610ea484cbb61d6fa29824d3577",
	"faults-stream":         "9972fd756ede120f7f5fc05c7d3b217663f15538c7a7da405793796a39758ffa",
	"chaos-adaptive-stream": "c9fde44c9542321a28aaac1952624b2327da51ecb91fe18ba62f5fb6265250fb",
	"faults-chaos-stream":   "629b85ec6c88f4b0630c46d0f80c842bc0ebeb2f3f59d430579e2ac85b6caab4",
}

// TestOpenLoopResultsPinned pins open-loop output bit-for-bit on every
// exec-suite config plus one that layers the stochastic fault model
// under a chaos schedule with overlapping windows — the open-loop
// counterpart of TestClosedLoopResultsPinned. Each config is pinned in
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
	for name, cfg := range cfgs {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res))))
		if want := openLoopPins[name]; got != want {
			t.Errorf("%s: result digest %s, pinned %s:\n%+v", name, got, want, res)
		}
		if strings.HasPrefix(name, "shed") && res.ShedRate == 0 {
			t.Errorf("%s: fixture never sheds, so it does not exercise admission", name)
		}
	}
}
