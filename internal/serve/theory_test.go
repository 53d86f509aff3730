package serve

import (
	"math"
	"testing"
)

// erlangCWait returns the theoretical mean queueing delay of an M/M/c
// queue (Erlang C). Our simulator is M/D/c when JitterFrac is 0; M/D/c
// waits are shorter than M/M/c (deterministic service halves the
// Pollaczek-Khinchine term), so Erlang C bounds the simulated mean wait
// from above while 0 bounds it from below.
func erlangCWait(lambda, mu float64, c int) float64 {
	a := lambda / mu // offered load in Erlangs
	rho := a / float64(c)
	if rho >= 1 {
		return math.Inf(1)
	}
	// Erlang C probability of waiting.
	sum := 0.0
	fact := 1.0
	for k := 0; k < c; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		sum += math.Pow(a, float64(k)) / fact
	}
	factC := fact * float64(c)
	if c == 1 {
		factC = 1
	}
	top := math.Pow(a, float64(c)) / factC * (1 / (1 - rho))
	pWait := top / (sum + top)
	return pWait / (float64(c)*mu - lambda)
}

func TestMeanWaitBoundedByErlangC(t *testing.T) {
	// λ = 1/arrival, μ = 1/service.
	for _, tc := range []struct {
		cores   int
		arrival float64
		service float64
	}{
		{4, 4, 10},   // ρ = 0.625
		{8, 2, 10},   // ρ = 0.625
		{8, 1.6, 10}, // ρ = 0.78
	} {
		res, err := Simulate(Config{
			Cores: tc.cores, MeanArrivalMs: tc.arrival, ServiceMs: tc.service,
			Requests: 20000, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		meanWait := res.Mean - tc.service
		upper := erlangCWait(1/tc.arrival, 1/tc.service, tc.cores)
		if meanWait < -1e-9 {
			t.Fatalf("negative mean wait %g", meanWait)
		}
		// M/D/c wait should be below M/M/c and above ~40% of it.
		if meanWait > upper*1.15 {
			t.Errorf("c=%d ρ=%.2f: simulated wait %.3f exceeds Erlang C bound %.3f",
				tc.cores, tc.service/(tc.arrival*float64(tc.cores)), meanWait, upper)
		}
		if upper > 0.05 && meanWait < upper*0.25 {
			t.Errorf("c=%d: simulated wait %.4f implausibly below M/M/c %.4f", tc.cores, meanWait, upper)
		}
	}
}

func TestUtilizationMatchesDefinition(t *testing.T) {
	res, err := Simulate(Config{Cores: 8, MeanArrivalMs: 2, ServiceMs: 10, Requests: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Utilization, 10.0/(2*8); math.Abs(got-want) > 1e-12 {
		t.Fatalf("utilization = %g, want %g", got, want)
	}
}

// TestMD1MeanWaitMatchesPollaczekKhinchine: with one core and no jitter
// the simulator is an M/D/1 queue, whose mean wait the
// Pollaczek–Khinchine formula gives exactly: ρ·S / (2(1−ρ)). The mean
// of the per-seed mean waits must lie within 3 standard errors of it.
func TestMD1MeanWaitMatchesPollaczekKhinchine(t *testing.T) {
	const service, seeds = 10.0, 12
	for _, rho := range []float64{0.3, 0.5, 0.7} {
		waits := make([]float64, seeds)
		for s := range waits {
			res, err := Simulate(Config{
				Cores: 1, MeanArrivalMs: service / rho, ServiceMs: service,
				Requests: 20000, Seed: uint64(s + 1),
			})
			if err != nil {
				t.Fatal(err)
			}
			waits[s] = res.Mean - service
		}
		var mean, ss float64
		for _, w := range waits {
			mean += w / seeds
		}
		for _, w := range waits {
			ss += (w - mean) * (w - mean)
		}
		se := math.Sqrt(ss / (seeds - 1) / seeds)
		want := rho * service / (2 * (1 - rho))
		if math.Abs(mean-want) > 3*se {
			t.Errorf("ρ=%.1f: mean wait %.4f ms (SE %.4f over %d seeds), Pollaczek–Khinchine %.4f ms", rho, mean, se, seeds, want)
		}
	}
}
