package hetsched

import (
	"math"
	"testing"
)

// TestMD1MeanPhaseWaitMatchesPollaczekKhinchine: one CPU device serving a
// one-Gather graph under Affinity with no jitter is an M/D/1 queue with
// service S = FixedUs + WorkUs, whose mean wait the Pollaczek–Khinchine
// formula gives exactly: ρ·S / (2(1−ρ)). At ρ 0.9 the mean queue is
// about four phases (λW) but its busy periods run long and deep, so this
// holds the queue under backlog to a closed form. The mean of the per-seed mean phase waits must lie within 3 standard errors
// of it. Runs are 100,000 requests long: at ρ 0.9 a 20,000-request run's
// mean wait is skewed low (long busy periods are rare in it), by about
// 10% against Pollaczek–Khinchine.
func TestMD1MeanPhaseWaitMatchesPollaczekKhinchine(t *testing.T) {
	const seeds = 12
	g := Graph{Phases: []Phase{{Kind: Gather, WorkUs: 40}}}
	devs := mustMix(t, "cpu1")
	service := (devs[0].FixedUs[Gather] + devs[0].Speed[Gather]*g.Phases[0].WorkUs) / 1e3
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		waits := make([]float64, seeds)
		for s := range waits {
			res := run(t, Config{
				Graph:         g,
				Devices:       devs,
				Policy:        Affinity,
				MeanArrivalMs: service / rho,
				Requests:      100000,
				Seed:          uint64(s + 1),
			})
			waits[s] = res.MeanPhaseWaitMs
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
			t.Errorf("ρ=%.1f: mean phase wait %.5f ms (SE %.5f over %d seeds), Pollaczek–Khinchine %.5f ms", rho, mean, se, seeds, want)
		}
	}
}
