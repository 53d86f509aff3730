package cluster

import (
	"testing"

	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// TestArenaReuseDeterministic: repeated runs through the recycled arena
// are byte-identical — a reused buffer that leaked state between runs
// would perturb the Result bit-for-bit.
func TestArenaReuseDeterministic(t *testing.T) {
	for name, cfg := range execConfigs(t) {
		want, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: rerun %d through the arena diverged:\n%+v\n%+v", name, i, want, got)
			}
		}
	}
}

// TestSimulateAllocsSteadyState pins the arena's payoff: after a warmup
// run seeds the free list, a closed-loop run performs a handful of
// allocations (the run state and the percentile summary; the shared
// Zipf sampler is memoized) instead of the ~40 per-run slices it allocated
// before arena reuse. The bounds are loose enough to survive incidental
// churn but fail if per-run pooling regresses wholesale.
func TestSimulateAllocsSteadyState(t *testing.T) {
	cfg := testConfig(t, 8, RowRange, 0.01, trace.HighHot)
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { Simulate(cfg) }); allocs > 10 {
		t.Errorf("closed-loop Simulate allocates %.0f objects/run in steady state, want <= 10", allocs)
	}

	ocfg := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 300,
		SLAMs:      50,
	})
	if _, err := Simulate(ocfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { Simulate(ocfg) }); allocs > 16 {
		t.Errorf("open-loop Simulate allocates %.0f objects/run in steady state, want <= 16", allocs)
	}
}

// TestFaultedClosedLoopAllocsSteadyState extends the guard to the fault
// model: the per-node slowdown and outage timelines (each track's RNG and
// window buffer) recycle through the arena, so a faulted closed-loop run
// with the full mitigation stack allocates no more than a steady one.
func TestFaultedClosedLoopAllocsSteadyState(t *testing.T) {
	cfg := benchConfig(t, true)
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { Simulate(cfg) }); allocs > 10 {
		t.Errorf("faulted closed-loop Simulate allocates %.0f objects/run in steady state, want <= 10", allocs)
	}
}
