package serve

import (
	"math"
	"testing"
)

func baseConfig() Config {
	return Config{
		Cores:         8,
		MeanArrivalMs: 2,
		ServiceMs:     10,
		Requests:      4000,
		Seed:          3,
	}
}

func TestSimulateLightLoad(t *testing.T) {
	cfg := baseConfig()
	cfg.MeanArrivalMs = 100 // utilization ~1.25%
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Nearly no queueing: p95 ≈ service time.
	if res.P95 < 10 || res.P95 > 12 {
		t.Fatalf("light-load p95 = %g, want ~10", res.P95)
	}
	if res.MaxQueueWaitMs > 20 {
		t.Fatalf("light-load max wait = %g", res.MaxQueueWaitMs)
	}
}

func TestSimulateSaturation(t *testing.T) {
	cfg := baseConfig()
	cfg.MeanArrivalMs = 1 // utilization 1.25 > 1: saturated
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 1 {
		t.Fatalf("utilization = %g, want > 1", res.Utilization)
	}
	// Queueing delay should dwarf service time.
	if res.P95 < 50 {
		t.Fatalf("saturated p95 = %g, expected large queueing", res.P95)
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	points, err := SweepArrival(baseConfig(), []float64{50, 5, 2, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Result.P95 < points[i-1].Result.P95-0.5 {
			t.Fatalf("p95 not (weakly) increasing with load: %+v", points)
		}
	}
}

func TestFasterServiceToleratesFasterArrivals(t *testing.T) {
	// The paper's Fig. 17 argument: a faster design (Integrated) stays
	// SLA-compliant at faster arrival rates.
	arrivals := []float64{8, 4, 2, 1.5, 1.2, 1}
	slow := baseConfig()
	slow.ServiceMs = 10
	fast := baseConfig()
	fast.ServiceMs = 6
	ps, err := SweepArrival(slow, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := SweepArrival(fast, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	const sla = 30
	aSlow, okS := FastestCompliantArrival(ps, sla)
	aFast, okF := FastestCompliantArrival(pf, sla)
	if !okS || !okF {
		t.Fatalf("no compliant region: slow=%v fast=%v", okS, okF)
	}
	if aFast >= aSlow {
		t.Fatalf("faster design tolerates %g ms arrivals, slower %g", aFast, aSlow)
	}
}

func TestSLACompliance(t *testing.T) {
	cfg := baseConfig()
	cfg.MeanArrivalMs = 100
	cfg.SLATargetMs = 11
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLACompliant < 0.99 {
		t.Fatalf("light load compliance = %g", res.SLACompliant)
	}
	cfg.SLATargetMs = 5 // below service time: nothing complies
	res, err = Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLACompliant != 0 {
		t.Fatalf("impossible SLA compliance = %g", res.SLACompliant)
	}
}

func TestJitterWidensTail(t *testing.T) {
	cfg := baseConfig()
	cfg.MeanArrivalMs = 100
	noJitter, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.JitterFrac = 0.3
	jittered, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if jittered.P99 <= noJitter.P99 {
		t.Fatalf("jitter did not widen tail: %g vs %g", jittered.P99, noJitter.P99)
	}
}

// TestJitterDeterministic: jitter draws come from the seeded RNG, so a
// jittered run is exactly as reproducible as a deterministic one — the
// property the exp runner's byte-identical -workers guarantee needs.
func TestJitterDeterministic(t *testing.T) {
	cfg := baseConfig()
	cfg.JitterFrac = 0.25
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("jittered simulation not deterministic:\n%+v\n%+v", a, b)
	}
	cfg.Seed++
	c, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed produced identical jittered result")
	}
}

// TestJitteredUtilization: with jitter J the mean service time is the
// lognormal mean ServiceMs·exp(J²/2), so reported utilization must carry
// the exp(J²/2) factor — without it the offered load is understated
// (pre-fix the jittered and unjittered configs reported the same value).
func TestJitteredUtilization(t *testing.T) {
	cfg := baseConfig()
	cfg.JitterFrac = 0.4
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.ServiceMs * math.Exp(0.4*0.4/2) / (cfg.MeanArrivalMs * float64(cfg.Cores))
	if math.Abs(res.Utilization-want) > 1e-12 {
		t.Fatalf("jittered utilization = %.12g, want %.12g", res.Utilization, want)
	}
	cfg.JitterFrac = 0
	plain, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= plain.Utilization {
		t.Fatalf("jitter did not raise utilization: %g vs %g", res.Utilization, plain.Utilization)
	}
}

// TestExplicitZeroWarmup: WarmupRequests 0 means unset (5% default), -1
// requests explicitly zero warmup, and any other negative is rejected —
// pre-fix, -2 was silently accepted.
func TestExplicitZeroWarmup(t *testing.T) {
	cfg := baseConfig()
	cfg.MeanArrivalMs = 1.6
	cfg.WarmupRequests = -1
	zero, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("explicit-zero warmup rejected: %v", err)
	}
	cfg.WarmupRequests = 0
	def, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The default run drops the first 5% of requests, so at this load the
	// two results must differ somewhere.
	if zero == def {
		t.Fatal("explicit-zero warmup produced the same result as the 5% default")
	}
	cfg.WarmupRequests = -2
	if _, err := Simulate(cfg); err == nil {
		t.Fatal("accepted warmup -2")
	}
}

// TestDefaults pins the run-length rule every request loop shares: 0
// requests means 2000; warmup 0 means 5% of the run, -1 none, and any
// other value stands — in requests and in open-loop ms alike.
func TestDefaults(t *testing.T) {
	for _, tc := range []struct{ n, w, wantN, wantW int }{
		{0, 0, 2000, 100}, {400, 0, 400, 20}, {400, -1, 400, 0}, {400, 7, 400, 7}, {0, -1, 2000, 0},
	} {
		if n, w := Defaults(tc.n, tc.w); n != tc.wantN || w != tc.wantW {
			t.Errorf("Defaults(%d, %d) = %d, %d; want %d, %d", tc.n, tc.w, n, w, tc.wantN, tc.wantW)
		}
	}
	if w := Warmup(1000.0, 0); w != 50 {
		t.Errorf("Warmup(1000 ms, 0) = %g, want 50", w)
	}
	if w := Warmup(1000.0, -1); w != 0 {
		t.Errorf("Warmup(1000 ms, -1) = %g, want 0", w)
	}
	if w := Warmup(1000.0, 12.5); w != 12.5 {
		t.Errorf("Warmup(1000 ms, 12.5) = %g, want 12.5", w)
	}
}

// TestQueueNonMonotonicArrivals pins the documented earliest-free-server
// semantics when submissions arrive out of dispatch order: requests are
// served in submission order, never re-sorted by arrival, so an early
// arrival submitted late queues behind already-submitted work.
func TestQueueNonMonotonicArrivals(t *testing.T) {
	q := NewQueue(1)
	if start, done := q.Submit(10, 5); start != 10 || done != 15 {
		t.Fatalf("first: start %g done %g, want 10, 15", start, done)
	}
	// Arrival at t=0 submitted second: served after the first request
	// despite arriving earlier — submission order is service order.
	if start, done := q.Submit(0, 5); start != 15 || done != 20 {
		t.Fatalf("out-of-order arrival: start %g done %g, want 15, 20", start, done)
	}
	// Two servers: the out-of-order arrival takes a free server if one
	// exists, starting at its own (earlier) arrival time.
	q2 := NewQueue(2)
	q2.Submit(10, 5)
	if start, done := q2.Submit(0, 3); start != 0 || done != 3 {
		t.Fatalf("free-server early arrival: start %g done %g, want 0, 3", start, done)
	}
	if q2.BusyMs() != 8 {
		t.Fatalf("BusyMs() = %g, want 8", q2.BusyMs())
	}
}

// TestQueueUnavailable: an outage window holds every server until the
// window ends and is not counted as busy time.
func TestQueueUnavailable(t *testing.T) {
	q := NewQueue(2)
	q.Submit(0, 4) // in service when the outage starts
	q.Unavailable(10)
	// A request arriving mid-outage starts when the node comes back.
	if start, done := q.Submit(6, 2); start != 10 || done != 12 {
		t.Fatalf("mid-outage arrival: start %g done %g, want 10, 12", start, done)
	}
	// The other server is also held: next submission queues at 10+.
	if start, _ := q.Submit(6, 1); start != 10 {
		t.Fatalf("second server not held: start %g, want 10", start)
	}
	if q.BusyMs() != 7 {
		t.Fatalf("outage counted as busy: BusyMs() = %g, want 7", q.BusyMs())
	}
	// A window in the past is a no-op.
	q.Unavailable(5)
	if start, _ := q.Submit(20, 1); start != 20 {
		t.Fatalf("stale window delayed an idle-server arrival to %g", start)
	}
}

// TestQueueEarliestFree: the backlog signal is the minimum over server
// free times — zero on an idle queue, and tracking the least-loaded
// server, not the busiest one.
func TestQueueEarliestFree(t *testing.T) {
	q := NewQueue(2)
	if q.EarliestFree() != 0 {
		t.Fatalf("idle queue EarliestFree() = %g, want 0", q.EarliestFree())
	}
	q.Submit(0, 4) // server A busy until 4
	if q.EarliestFree() != 0 {
		t.Fatalf("one idle server left, EarliestFree() = %g, want 0", q.EarliestFree())
	}
	q.Submit(1, 2) // server B busy until 3
	if q.EarliestFree() != 3 {
		t.Fatalf("EarliestFree() = %g, want 3 (least-loaded server)", q.EarliestFree())
	}
	q.Unavailable(10)
	if q.EarliestFree() != 10 {
		t.Fatalf("outage not reflected: EarliestFree() = %g, want 10", q.EarliestFree())
	}
}

// TestMeetsSLABoundary: compliance is inclusive — a p95 exactly on the
// target counts as meeting the SLA.
func TestMeetsSLABoundary(t *testing.T) {
	r := Result{P95: 12.5}
	if !r.MeetsSLA(12.5) {
		t.Error("p95 exactly at target should comply")
	}
	if !r.MeetsSLA(13) {
		t.Error("p95 below target should comply")
	}
	if r.MeetsSLA(12.499999) {
		t.Error("p95 above target should not comply")
	}
}

// TestQueueFCFS pins the exported Queue's discipline: earliest-free
// server, start no earlier than arrival, busy accounting additive.
func TestQueueFCFS(t *testing.T) {
	q := NewQueue(2)
	if q.Servers() != 2 {
		t.Fatalf("Servers() = %d", q.Servers())
	}
	// Two arrivals at t=0 take both servers; the third queues behind the
	// earlier finisher.
	if start, done := q.Submit(0, 10); start != 0 || done != 10 {
		t.Fatalf("first: start %g done %g", start, done)
	}
	if start, done := q.Submit(0, 4); start != 0 || done != 4 {
		t.Fatalf("second: start %g done %g", start, done)
	}
	if start, done := q.Submit(1, 3); start != 4 || done != 7 {
		t.Fatalf("queued: start %g done %g, want 4, 7", start, done)
	}
	// A late arrival to an idle server starts on arrival.
	if start, _ := q.Submit(20, 1); start != 20 {
		t.Fatalf("idle arrival started at %g", start)
	}
	if q.BusyMs() != 18 {
		t.Fatalf("BusyMs() = %g, want 18", q.BusyMs())
	}
}

func TestNewQueuePanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewQueue(0) did not panic")
		}
	}()
	NewQueue(0)
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.P95 != b.P95 || a.Mean != b.Mean {
		t.Fatal("simulation not deterministic")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := baseConfig()
	bad.Cores = 0
	if _, err := Simulate(bad); err == nil {
		t.Fatal("accepted zero cores")
	}
	bad = baseConfig()
	bad.ServiceMs = -1
	if _, err := Simulate(bad); err == nil {
		t.Fatal("accepted negative service time")
	}
	if _, err := SweepArrival(baseConfig(), nil); err == nil {
		t.Fatal("accepted empty sweep")
	}
}

func TestFastestCompliantArrivalNoneCompliant(t *testing.T) {
	points := []SweepPoint{{MeanArrivalMs: 1, Result: Result{P95: 100}}}
	if _, ok := FastestCompliantArrival(points, 50); ok {
		t.Fatal("reported compliance where none exists")
	}
}

func TestPercentileOrdering(t *testing.T) {
	cfg := baseConfig()
	cfg.MeanArrivalMs = 1.6
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.P50 <= res.P95 && res.P95 <= res.P99) {
		t.Fatalf("percentiles out of order: %g %g %g", res.P50, res.P95, res.P99)
	}
	if res.Mean <= 0 {
		t.Fatal("missing mean")
	}
}

// TestQueueReset: a Reset queue must be indistinguishable from a fresh
// NewQueue — same Submit results, zero busy time — whether the server
// count shrinks, grows within capacity, or grows past it.
func TestQueueReset(t *testing.T) {
	q := NewQueue(4)
	q.Submit(0, 10)
	q.Submit(0, 10)
	q.Unavailable(50)
	for _, servers := range []int{4, 2, 8} {
		q.Reset(servers)
		if q.Servers() != servers || q.BusyMs() != 0 {
			t.Fatalf("after Reset(%d): servers %d busy %g", servers, q.Servers(), q.BusyMs())
		}
		fresh := NewQueue(servers)
		for i := 0; i < 3; i++ {
			arrival := float64(i) * 0.5
			gs, gd := q.Submit(arrival, 2)
			ws, wd := fresh.Submit(arrival, 2)
			if gs != ws || gd != wd {
				t.Fatalf("Reset(%d) submit %d: (%g,%g) vs fresh (%g,%g)", servers, i, gs, gd, ws, wd)
			}
		}
	}
	// Reuse within capacity is allocation-free.
	allocs := testing.AllocsPerRun(20, func() { q.Reset(8) })
	if allocs != 0 {
		t.Fatalf("Reset allocated %.1f times, want 0", allocs)
	}
}

func TestQueueResetPanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(0) did not panic")
		}
	}()
	NewQueue(1).Reset(0)
}
