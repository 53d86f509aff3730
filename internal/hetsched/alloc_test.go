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
	// enqueues, then pre-grow each pending queue past what a measurement
	// appends.
	for d := range st.specs {
		st.busy[d] = true
		st.busyEnd[d] = 1e12
		st.busyKind[d] = Gather
	}
	for i := 0; i < 1024; i++ {
		st.ready(0, 1)
	}
	for d := range st.pend {
		st.pend[d] = st.pend[d][:0]
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
	// Queue 300 gathers on device 0 (a CPU: batch of 1 per launch).
	for i := 0; i < 300; i++ {
		st.enqueue(0, 0, 1)
	}
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = false
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		st.busy[0] = false
		st.maybeStart(0, 1e12+float64(i))
		i++
	})
	if avg != 0 {
		t.Errorf("batch launch allocates %.2f objects per batch in steady state; want 0", avg)
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
