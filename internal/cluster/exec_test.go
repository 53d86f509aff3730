package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// execConfigs spans the closed-loop behavior space the parallel backend
// must reproduce bitwise: the plain path, the fault-injected path, each
// conditional-copy mitigation (hedging and timeout retries), a free
// network, a chaos schedule severing domains mid-run, and the adaptive
// overload controls' epoch-grid state.
func execConfigs(t *testing.T) map[string]Config {
	t.Helper()
	plain := testConfig(t, 8, RowRange, 0.01, trace.HighHot)
	faulted := faultConfig(t, trace.MediumHot)
	hedged := faultConfig(t, trace.HighHot)
	hedged.Mitigation = Mitigation{HedgeDelayMs: hedgeDelay(t, trace.HighHot)}
	retried := faultConfig(t, trace.MediumHot)
	retried.Mitigation = Mitigation{TimeoutMs: hedgeDelay(t, trace.MediumHot) * 2, MaxRetries: 2}
	chaotic := faultConfig(t, trace.MediumHot)
	chaotic.Mitigation = Mitigation{HedgeDelayMs: hedgeDelay(t, trace.MediumHot)}
	chaotic.Chaos = chaosTestSchedule(chaotic.MeanArrivalMs * float64(chaotic.Queries))
	adaptive := faultConfig(t, trace.MediumHot)
	adaptive.Mitigation = Mitigation{
		TimeoutMs: hedgeDelay(t, trace.MediumHot) * 2, MaxRetries: 2,
		RetryBudget: 0.25, BreakerTripRate: 0.5, BreakerMinSamples: 4,
	}
	adaptive.Chaos = chaosTestSchedule(adaptive.MeanArrivalMs * float64(adaptive.Queries))
	free := faultConfig(t, trace.HighHot)
	free.Net = Network{}
	free.Mitigation = Mitigation{HedgeDelayMs: hedgeDelay(t, trace.HighHot)}
	return map[string]Config{
		"plain":          plain,
		"faults":         faulted,
		"hedge":          hedged,
		"retries":        retried,
		"free-network":   free,
		"chaos":          chaotic,
		"chaos-adaptive": adaptive,
	}
}

func hedgeDelay(t *testing.T, h trace.Hotness) float64 {
	t.Helper()
	return cleanBaseline(t, h).P99
}

func TestParallelBackendByteIdenticalClosedLoop(t *testing.T) {
	for name, cfg := range execConfigs(t) {
		t.Run(name, func(t *testing.T) {
			want, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 8, 32} {
				restore := SetExecBackend(Parallel(shards))
				got, err := Simulate(cfg)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Parallel(%d) diverged from Sequential:\nseq %+v\npar %+v", shards, want, got)
				}
			}
		})
	}
}

// openExecConfigs spans the open-loop behavior space the parallel
// backend must reproduce bitwise: the plain admit-all path, admission
// control reading queue state, bursty overload, autoscaler ticks,
// population revisits flowing through the pre-draw ring, and fault
// injection with hedging.
func openExecConfigs(t *testing.T) map[string]Config {
	t.Helper()
	cfgs := map[string]Config{}

	plain := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 400,
		SLAMs:      50,
	})
	cfgs["plain"] = plain

	// A budget tight enough that the fixture sheds (about 2% of
	// arrivals), so admission reads queue state here too.
	shed := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 400,
		SLAMs:      50,
		Admission:  Admission{Policy: ShedOverBudget, QueueBudgetMs: 0.005},
	})
	cfgs["shed"] = shed

	cfgs["burst-shed"] = openColdConfig(t, 4, &OpenLoop{
		Arrivals: traffic.Config{
			Model: traffic.MMPP, RatePerMs: openRate(t, 4, 0.9),
			BurstFactor: 3, BurstEveryMs: 80, BurstMeanMs: 40,
		},
		DurationMs: 600,
		SLAMs:      8,
		Admission:  Admission{Policy: ShedOverBudget, QueueBudgetMs: 2},
	})

	cfgs["autoscale"] = openColdConfig(t, 4, &OpenLoop{
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
	})

	cfgs["population"] = openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.4)},
		DurationMs: 500,
		SLAMs:      100,
		Population: &traffic.Population{Users: 1 << 16, RevisitProb: 0.7, Affinity: 0.6},
	})

	faulted := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 400,
		SLAMs:      50,
	})
	faulted.Faults = testFaults()
	faulted.Mitigation = Mitigation{HedgeDelayMs: hedgeDelay(t, trace.HighHot), DegradedJoin: true,
		TimeoutMs: hedgeDelay(t, trace.HighHot) * 2, MaxRetries: 1}
	cfgs["faults"] = faulted

	chaotic := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.6)},
		DurationMs: 500,
		SLAMs:      50,
	})
	chaotic.Chaos = chaosTestSchedule(500)
	chaotic.Mitigation = Mitigation{
		TimeoutMs: hedgeDelay(t, trace.HighHot) * 2, MaxRetries: 2,
		RetryBudget: 0.3, BreakerTripRate: 0.5, BreakerMinSamples: 4,
	}
	cfgs["chaos-adaptive"] = chaotic

	return cfgs
}

// TestParallelBackendByteIdenticalOpenLoop: the event loop with its
// arrivals pre-drawn on several goroutines is bit-for-bit the
// sequential run at every shard count, in both the exact and
// stream-stats summaries. The tiny pre-draw block forces frequent
// block swaps, each taken while the helpers may still hold chunks of
// the back block.
func TestParallelBackendByteIdenticalOpenLoop(t *testing.T) {
	prevBlock := openPredrawBlock
	openPredrawBlock = 7
	t.Cleanup(func() { openPredrawBlock = prevBlock })
	for name, cfg := range openExecConfigs(t) {
		for _, stream := range []bool{false, true} {
			label := name
			if stream {
				label += "-stream"
			}
			t.Run(label, func(t *testing.T) {
				cfg := cfg
				o := *cfg.Open
				o.StreamStats = stream
				cfg.Open = &o
				want, err := Simulate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 3, 8} {
					restore := SetExecBackend(Parallel(shards))
					got, err := Simulate(cfg)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("Parallel(%d) diverged from Sequential:\nseq %+v\npar %+v", shards, want, got)
					}
				}
			})
		}
	}
}

// blockEdgeConfigs spans the pre-draw pipeline's block bookkeeping at
// block size n on an 8-node fleet, about 300 arrivals in whole blocks:
// a closed loop whose Queries is a multiple of n (the last full block
// publishes a back block of +Inf arrivals), an open horizon exactly on
// a block boundary (the back block's first entry lies on the horizon,
// so it has no live entry), and one on a block's last entry (the block
// reaches the horizon, so no back block is published after it).
func blockEdgeConfigs(t *testing.T, n int) map[string]Config {
	t.Helper()
	arrivals := max(2, 300/n) * n
	closed := testConfig(t, 8, RowRange, 0.01, trace.HighHot)
	closed.Queries = arrivals
	cfgs := map[string]Config{"closed-multiple": closed}
	for name, idx := range map[string]int{"horizon-on-boundary": arrivals, "horizon-on-last-entry": arrivals - 1} {
		cfg := openTestConfig(t, 8, &OpenLoop{
			Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 8, 0.5)},
			SLAMs:      50,
			Population: &traffic.Population{Users: 1 << 10, RevisitProb: 0.5, Affinity: 0.5},
		})
		cfg.Open.DurationMs = nthArrival(t, cfg, idx)
		cfgs[name] = cfg
	}
	return cfgs
}

// nthArrival returns the instant of arrival number idx (from 0) of the
// open run cfg configures.
func nthArrival(t *testing.T, cfg Config, idx int) float64 {
	t.Helper()
	ar := cfg.Open.Arrivals
	ar.Seed = stats.SplitSeed(cfg.Seed^saltOpenArrivals, 0)
	stream, err := traffic.NewStream(ar)
	if err != nil {
		t.Fatal(err)
	}
	for range idx {
		stream.Next()
	}
	return stream.Next()
}

// TestParallelBackendByteIdenticalBlockEdges: the pipelined pre-draw
// is %+v-identical to Sequential at P = 2, 3 and 8 at the edges of its
// block bookkeeping (blockEdgeConfigs), at blocks of 1 and 3 arrivals
// (fewer entries than helpers, and one chunk per block) and at the
// default size.
func TestParallelBackendByteIdenticalBlockEdges(t *testing.T) {
	prevBlock := openPredrawBlock
	t.Cleanup(func() { openPredrawBlock = prevBlock })
	for _, n := range []int{1, 3, prevBlock} {
		openPredrawBlock = n
		for name, cfg := range blockEdgeConfigs(t, n) {
			t.Run(fmt.Sprintf("block%d/%s", n, name), func(t *testing.T) {
				want, err := Simulate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 3, 8} {
					restore := SetExecBackend(Parallel(shards))
					got, err := Simulate(cfg)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
						t.Fatalf("Parallel(%d) diverged from Sequential:\nseq %s\npar %s", shards, w, g)
					}
				}
			})
		}
	}
}

// TestPredrawHelpersJoinedOnReturn: no pre-draw helper outlives
// Simulate. Under Parallel(2) and Parallel(4) the goroutine count is
// back at its baseline the moment Simulate returns, for closed and open
// runs: the block-edge shapes, where the last published block has no
// live entry, and an open day that ends inside a block. The check runs
// at GOMAXPROCS 1, where it is exact: a helper's last act before it
// exits wakes the loop, and with one P the loop runs again only once
// that helper is gone, while a helper the loop did not wait for is
// still counted.
func TestPredrawHelpersJoinedOnReturn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prevBlock := openPredrawBlock
	t.Cleanup(func() { openPredrawBlock = prevBlock })
	openPredrawBlock = 3
	cfgs := blockEdgeConfigs(t, openPredrawBlock)
	cfgs["open-day"] = openBenchConfig(t)
	cfgs["open-day"].Open.DurationMs = 400
	for name, cfg := range cfgs {
		for _, shards := range []int{2, 4} {
			restore := SetExecBackend(Parallel(shards))
			base := runtime.NumGoroutine()
			_, err := Simulate(cfg)
			got := runtime.NumGoroutine()
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if got > base {
				t.Errorf("%s under Parallel(%d): %d goroutines after Simulate returned, %d before", name, shards, got, base)
			}
		}
	}
}

func TestExecBackendShards(t *testing.T) {
	if got := Sequential.Shards(); got != 1 {
		t.Fatalf("Sequential.Shards() = %d", got)
	}
	if got := Parallel(0).Shards(); got != 1 {
		t.Fatalf("Parallel(0).Shards() = %d", got)
	}
	if got := Parallel(6).Shards(); got != 6 {
		t.Fatalf("Parallel(6).Shards() = %d", got)
	}
	restore := SetExecBackend(Parallel(16))
	if got := execParts(4); got != 4 {
		t.Fatalf("execParts(4) under Parallel(16) = %d", got)
	}
	restore()
	if got := execParts(4); got != 1 {
		t.Fatalf("execParts(4) after restore = %d", got)
	}
}
