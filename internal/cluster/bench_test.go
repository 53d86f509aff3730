package cluster

import (
	"fmt"
	"testing"

	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

func benchConfig(tb testing.TB, faulted bool) Config {
	tb.Helper()
	plan, err := NewPlan(testModel(), 8, RowRange, 0.01, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tm := testTiming()
	cfg := Config{
		Plan:            plan,
		Hotness:         trace.HighHot,
		SamplesPerQuery: 8,
		Timing:          tm,
		Net:             DefaultNetwork(),
		ServersPerNode:  2,
		MeanArrivalMs:   ArrivalForUtilization(plan, tm, 8, 2, 0.55),
		JitterFrac:      0.08,
		Queries:         1500,
		Seed:            1,
	}
	if faulted {
		cfg.Faults = FaultModel{
			SlowdownEveryMs: 40, SlowdownMeanMs: 6, SlowdownFactor: 4,
			DownEveryMs: 120, DownMeanMs: 3,
			DropProb: 0.01,
		}
		cfg.Mitigation = Mitigation{TimeoutMs: 2, MaxRetries: 2, HedgeDelayMs: 1, DegradedJoin: true}
	}
	return cfg
}

// openBenchConfig is the day-scale open-loop workload the parallel
// execution backend is benchmarked on: a diurnal Poisson day against a
// population of revisiting users, admission control live, stream-stats
// on (the mode a real day-length run needs for flat memory).
func openBenchConfig(tb testing.TB) Config {
	tb.Helper()
	plan, err := NewPlan(testModel(), 8, RowRange, 0.01, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tm := testTiming()
	return Config{
		Plan:            plan,
		Hotness:         trace.HighHot,
		SamplesPerQuery: 8,
		Timing:          tm,
		Net:             DefaultNetwork(),
		ServersPerNode:  2,
		JitterFrac:      0.08,
		Seed:            1,
		Open: &OpenLoop{
			Arrivals: traffic.Config{
				Model:     traffic.Poisson,
				RatePerMs: 1 / ArrivalForUtilization(plan, tm, 8, 2, 0.7),
				DayMs:     4000, DiurnalAmp: 0.6,
			},
			Population:  &traffic.Population{Users: 1 << 16, RevisitProb: 0.6, Affinity: 0.5},
			DurationMs:  4000,
			SLAMs:       50,
			Admission:   Admission{Policy: ShedOverBudget, QueueBudgetMs: 25},
			StreamStats: true,
		},
	}
}

// BenchmarkOpenLoopParallel measures the open-loop day-scale run with
// its arrivals pre-drawn on 1, 2, 4, and 8 goroutines (p1 = inline; the
// output is byte-identical at every P, so this is a pure execution-cost
// curve). Speedup over p1 requires free hardware cores — on a
// single-CPU host the curve is flat and the goroutine hand-off is what's
// being measured.
func BenchmarkOpenLoopParallel(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			cfg := openBenchConfig(b)
			restore := SetExecBackend(Parallel(p))
			defer restore()
			// One untimed run seeds the recycled-run free list so allocs/op
			// reports the steady state, not one-time pool growth.
			if _, err := Simulate(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// chaosBenchConfig layers the robustness tier onto the open-loop day:
// a scheduled single-domain outage mid-day plus the full adaptive
// mitigation stack (retry budget and per-node circuit breakers), the
// configuration the chaos experiments (clu8/clu9) run.
func chaosBenchConfig(tb testing.TB) Config {
	tb.Helper()
	cfg := openBenchConfig(tb)
	cfg.Mitigation = Mitigation{
		TimeoutMs: 2, MaxRetries: 2,
		RetryBudget: 0.1, AdaptEpochMs: 4,
		BreakerTripRate: 0.5, BreakerMinSamples: 4,
	}
	cfg.Chaos = ChaosSchedule{
		Domains: 4,
		Events: []ChaosEvent{
			{Kind: DomainOutage, Domain: 2, AtMs: 1000, ForMs: 500},
		},
	}
	return cfg
}

// BenchmarkChaosOpenLoop measures the open-loop day with an active chaos
// schedule and adaptive overload control — the cost of the robustness
// tier on top of BenchmarkOpenLoopParallel's steady day. Byte-identical
// output at every P, so the p1/p4 pair is a pure execution-cost curve.
func BenchmarkChaosOpenLoop(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			cfg := chaosBenchConfig(b)
			restore := SetExecBackend(Parallel(p))
			defer restore()
			// Untimed warmup: steady-state allocs/op, as above.
			if _, err := Simulate(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestChaosOpenLoopAllocsSteadyState extends run reuse's steady-state
// allocation guard to the robustness tier: once a warmup run has seeded
// the free list, an open-loop run with an active chaos schedule, retry
// budget, and breakers must reuse the recycled chaos/adaptive state
// rather than re-allocating it per run. Uses the small open fixture
// (not the day-scale bench config, whose population and stream-stats
// state dominates) so the bound isolates the chaos/adaptive layer.
func TestChaosOpenLoopAllocsSteadyState(t *testing.T) {
	cfg := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 300,
		SLAMs:      50,
	})
	cfg.Mitigation = Mitigation{
		TimeoutMs: 2, MaxRetries: 2,
		RetryBudget: 0.1, AdaptEpochMs: 4,
		BreakerTripRate: 0.5, BreakerMinSamples: 4,
	}
	cfg.Chaos = ChaosSchedule{
		Domains: 4,
		Events: []ChaosEvent{
			{Kind: DomainOutage, Domain: 2, AtMs: 80, ForMs: 60},
			{Kind: DomainSlowdown, Domain: 0, AtMs: 150, ForMs: 50, Factor: 3},
		},
	}
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { Simulate(cfg) }); allocs > 16 {
		t.Errorf("chaos open-loop Simulate allocates %.0f objects/run in steady state, want <= 16", allocs)
	}
}

// BenchmarkClusterSimulate measures one full discrete-event cluster run —
// query synthesis, copy scheduling, per-node FCFS service, and the join —
// on a steady fleet and under the fault+mitigation model, inline and
// with its arrivals pre-drawn on 2 goroutines (output is byte-identical
// either way, so each p2 row against its p1 row is a pure
// execution-cost ratio).
func BenchmarkClusterSimulate(b *testing.B) {
	for _, bc := range []struct {
		name    string
		faulted bool
		p       int
	}{{"steady", false, 1}, {"faulted", true, 1}, {"steady_p2", false, 2}, {"faulted_p2", true, 2}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := benchConfig(b, bc.faulted)
			restore := SetExecBackend(Parallel(bc.p))
			defer restore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
