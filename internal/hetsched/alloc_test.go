package hetsched

import (
	"testing"

	"dlrmsim/internal/check"
)

// allocState builds a warmed simulator state whose queues and scratch
// have reached steady-state capacity, so the measured paths exercise no
// amortized slice growth.
func allocState(t testing.TB, policy Policy) *simState {
	t.Helper()
	devs, err := NewMix("hetero")
	if err != nil {
		t.Fatal(err)
	}
	st, err := newSimState(Config{
		Graph:         testGraph(),
		Devices:       devs,
		Policy:        policy,
		MeanArrivalMs: 0.05,
		Requests:      64,
		JitterFrac:    0.2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Park every device busy far in the future so ready() only routes and
	// enqueues, then pre-grow every device's ring of every kind past what
	// a measurement pushes, and empty the queues again.
	for d := range st.specs {
		st.busy[d] = true
		st.busyEnd[d] = 1e12
		st.busyKind[d] = Gather
	}
	for d := range st.specs {
		for i := 0; i < 1024*st.nPh; i++ {
			st.enqueue(d, int32(i%st.nPh), 1)
		}
	}
	for i := 0; i < 1024; i++ {
		st.ready(0, 1)
	}
	for d := range st.queue {
		q := &st.queue[d]
		for k := range q.kind {
			q.kind[k].head, q.kind[k].n = 0, 0
		}
		q.n = 0
		st.pendEstMs[d] = 0
	}
	st.steals = 0
	return st
}

// TestDispatchZeroAlloc pins the dispatch hot path — policy routing plus
// enqueue — to zero heap allocations in steady state, for every policy.
// A regression here (a per-dispatch closure, a map, a fresh slice) turns
// into GC pressure on every simulated phase.
func TestDispatchZeroAlloc(t *testing.T) {
	for _, pol := range AllPolicies {
		st := allocState(t, pol)
		i := 0
		avg := testing.AllocsPerRun(200, func() {
			st.ready(0, float64(i))
			i++
		})
		if avg != 0 {
			t.Errorf("%v: dispatch allocates %.2f objects per phase in steady state; want 0", pol, avg)
		}
	}
}

// TestLaunchZeroAlloc pins the other half of the hot path: batch
// formation and service-time computation (SMT factor + jitter draw).
// Runtime checks are disabled for the measurement — their assertion
// arguments box into interfaces, which is exactly why production runs
// keep check.Enabled off.
func TestLaunchZeroAlloc(t *testing.T) {
	st := allocState(t, Affinity)
	// Queue 300 phases of every kind, in graph order, on device 0 (a CPU:
	// batch of 1 per launch). Each run queues the next phase and launches
	// the oldest, so the queue stays 300 deep and mixed while every ring's
	// head laps its buffer: each kind is at least a quarter of the pushes.
	q := &st.queue[0]
	for i := 0; i < 300; i++ {
		st.enqueue(0, int32(i%st.nPh), 1)
	}
	runs := 0
	for k := range q.kind {
		runs = max(runs, st.nPh*len(q.kind[k].buf))
	}
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = false
	i := 300
	avg := testing.AllocsPerRun(runs, func() {
		st.enqueue(0, int32(i%st.nPh), 1)
		st.busy[0] = false
		st.maybeStart(0, 1e12+float64(i))
		i++
	})
	if avg != 0 {
		t.Errorf("batch launch allocates %.2f objects per batch in steady state; want 0", avg)
	}
	if q.n != 300 || !q.counted() {
		t.Errorf("queue holds %d phases after the runs (rings consistent: %v); want 300", q.n, q.counted())
	}
}

// TestStealZeroAlloc pins the Steal policy's steady state to zero
// allocations: a completion finds its own queue empty, steals the oldest
// phase it can run from the most backlogged device and launches it.
func TestStealZeroAlloc(t *testing.T) {
	st := allocState(t, Steal)
	// Device 1 (a CPU) steals from device 2 (the GPU), which stays parked
	// busy with a 64-deep queue of top-MLP phases; those have no
	// successors, so finishing one dispatches nothing further.
	const thief, victim = 1, 2
	topMLP := func(i int) int32 { return int32((i%64)*st.nPh + st.nPh - 1) }
	for i := 0; i < 64; i++ {
		st.enqueue(victim, topMLP(i), 1)
	}
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = false
	i := 64
	avg := testing.AllocsPerRun(200, func() {
		st.enqueue(victim, topMLP(i), 1)
		st.complete(thief, 1e12+float64(i))
		i++
	})
	if avg != 0 {
		t.Errorf("complete→steal→launch allocates %.2f objects per steal in steady state; want 0", avg)
	}
	if st.steals != 201 || !st.busy[thief] {
		t.Errorf("%d steals over 201 completions (thief busy: %v); want one each", st.steals, st.busy[thief])
	}
}

// BenchmarkHetSchedBacklog measures 10,000-request runs at the
// sweep_small benchmark's hetsched config (DLRM graph, utilization 0.7
// of the demand estimate, jitter 0.2), in the two cells whose ready
// queues grow deepest there: smt2 under EFT and hetero under Affinity.
// Its cost per run tracks how queue operations scale with backlog.
func BenchmarkHetSchedBacklog(b *testing.B) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = false
	g := testGraph()
	for _, c := range []struct {
		mix string
		pol Policy
	}{{"smt2", EFT}, {"hetero", Affinity}} {
		devs := mustMix(b, c.mix)
		cfg := Config{
			Graph:         g,
			Devices:       devs,
			Policy:        c.pol,
			MeanArrivalMs: ArrivalForUtilization(g, devs, 0.7),
			Requests:      10000,
			JitterFrac:    0.2,
			Seed:          1,
		}
		b.Run(c.mix+"/"+c.pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHetSched measures the full discrete-event run: 2000 requests
// of the DLRM graph over the five-device hetero fleet under EFT, the
// policy with the most per-dispatch work.
func BenchmarkHetSched(b *testing.B) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = false
	g := testGraph()
	devs, err := NewMix("hetero")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Graph:         g,
		Devices:       devs,
		Policy:        EFT,
		MeanArrivalMs: ArrivalForUtilization(g, devs, 0.7),
		Requests:      2000,
		JitterFrac:    0.2,
		Seed:          1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
