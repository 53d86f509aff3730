package cluster

import (
	"sync"
	"testing"

	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// TestArenaReuseDeterministic: repeated runs through one recycled
// openRun are byte-identical — a reused buffer that leaked state between
// runs would perturb the Result bit-for-bit.
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
				t.Fatalf("%s: rerun %d through a recycled run diverged:\n%+v\n%+v", name, i, want, got)
			}
		}
	}
}

// TestRunReuseAcrossConfigsConcurrent: runs recycled across fleet sizes
// and modes, from several goroutines at once, equal their sequential
// references. Each goroutine walks the configs from its own offset, so
// the openRun it pops was last used by a different fleet size or mode:
// its buffers shrink and grow, and state a rebuild failed to reset
// (the violated minutes, the sketch, the recovery buckets, the fault
// and adaptive state) would leak into the next result.
func TestRunReuseAcrossConfigsConcurrent(t *testing.T) {
	var cfgs []Config
	for _, nodes := range []int{2, 8, 16} {
		closed := testConfig(t, nodes, RowRange, 0.01, trace.HighHot)
		closed.Queries = 400
		open := func() *OpenLoop {
			return &OpenLoop{
				Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, nodes, 0.6)},
				DurationMs: 150,
				SLAMs:      5,
			}
		}
		stream := openTestConfig(t, nodes, open())
		stream.Open.StreamStats = true
		chaos := openTestConfig(t, nodes, open())
		chaos.Faults = testFaults()
		chaos.Mitigation = Mitigation{
			TimeoutMs: 2, MaxRetries: 2, HedgeDelayMs: 1,
			RetryBudget: 0.1, AdaptEpochMs: 4, BreakerTripRate: 0.5, BreakerMinSamples: 4,
		}
		chaos.Chaos = chaosTestSchedule(150)
		cfgs = append(cfgs, closed, stream, chaos)
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if want[i], err = Simulate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 2*len(cfgs); k++ {
				i := (w*5 + k) % len(cfgs)
				got, err := Simulate(cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("worker %d, config %d (%d nodes): recycled run diverged from its sequential reference:\n%+v\n%+v",
						w, i, cfgs[i].Plan.Nodes, want[i], got)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSimulateAllocsSteadyState pins run reuse's payoff: after a warmup
// run seeds the free list, a closed-loop run performs a handful of
// allocations (the percentile summary; the run state is recycled and the
// shared Zipf sampler is memoized) instead of the ~40 per-run slices it
// allocated before runs were recycled. The bounds are loose enough to survive incidental
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
// model: the per-node slowdown and outage timelines (each timeline's RNG and
// window buffer) recycle with the run, so a faulted closed-loop run
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

// TestParallelAllocsSteadyState pins the parallel backend's steady-state
// allocations on the two day-scale bench fixtures: the open-loop day
// under Parallel(2) and the chaos day under Parallel(4). The pre-draw
// helpers start once per run and their job channel, blocks and cold
// buffers recycle with it (exec.go), so a parallel run allocates about
// what a run at P = 1 does (279): measured 280–284 and 282, at
// GOMAXPROCS 1 and 2. A helper started per block again, or any other
// allocation per block, would add hundreds per day and trip the bound,
// which is the measured count plus the slack this guard has always
// left for the runtime's goroutine bookkeeping (25 and 52).
func TestParallelAllocsSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		parts int
		bound float64
	}{
		{"open day", openBenchConfig(t), 2, 309},
		{"chaos day", chaosBenchConfig(t), 4, 334},
	} {
		restore := SetExecBackend(Parallel(tc.parts))
		// AllocsPerRun's warmup run seeds the free list.
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := Simulate(tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		restore()
		if allocs > tc.bound {
			t.Errorf("%s under Parallel(%d) allocates %.0f objects/run in steady state, want <= %.0f", tc.name, tc.parts, allocs, tc.bound)
		}
	}
}
