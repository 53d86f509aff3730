package hetsched

import (
	"fmt"
	"testing"

	"dlrmsim/internal/pin"
)

// holdMix is cpu2gpu1 with a GPU that holds up to 40 µs for an 8-phase
// batch: windows arm on a short queue, re-arm as phases join it, expire
// into partial batches and are cut short when the batch fills.
func holdMix(t testing.TB) []DeviceSpec {
	devs := mustMix(t, "cpu2gpu1")
	devs[2].MaxBatch, devs[2].HoldUs = 8, 40
	return devs
}

// TestHetschedResultsPinned pins every Result field bit-for-bit, in
// testdata/hetsched_results.pin keyed "<mix>/<policy>", for each named
// mix and the hold-window GPU mix under every policy, with an explicit
// warmup, with jitter and ("/nojitter") without it: the guard
// that a change to how the event loop finds its next device event leaves
// the schedule exactly where it was. Without jitter, identical devices
// finish batches at equal instants, so the cells also pin the
// lowest-device-index tie order.
func TestHetschedResultsPinned(t *testing.T) {
	g := testGraph()
	mixes := append(append([]string(nil), Mixes...), "cpu2gpu1+hold")
	got := map[string]Result{}
	for _, mix := range mixes {
		var devs []DeviceSpec
		if mix == "cpu2gpu1+hold" {
			devs = holdMix(t)
		} else {
			devs = mustMix(t, mix)
		}
		for _, pol := range AllPolicies {
			for _, jitter := range []float64{0.2, 0} {
				res := run(t, Config{
					Graph:          g,
					Devices:        devs,
					Policy:         pol,
					MeanArrivalMs:  ArrivalForUtilization(g, devs, 0.75),
					Requests:       400,
					WarmupRequests: 40,
					JitterFrac:     jitter,
					Seed:           7,
				})
				name := mix + "/" + pol.String()
				if jitter == 0 {
					name += "/nojitter"
				}
				got[name] = res
			}
		}
	}
	// Backlogged cells: at 0.95 and 1.2 of the demand estimate the
	// deepest ready queue reaches 773–1,147 phases under smt2/EFT and
	// hetero/Affinity and 31–207 in the Steal cells, against 8–205 for the
	// same four at 0.75 above. They pin the launch order and the queue
	// arithmetic (batch formation, steals, the EFT backlog estimate) over
	// long mixed-kind queues, not only short ones.
	for _, c := range []struct {
		mix string
		pol Policy
	}{{"smt2", EFT}, {"hetero", Affinity}, {"biglittle", Steal}, {"cpu2gpu1+hold", Steal}} {
		devs := holdMix(t)
		if c.mix != "cpu2gpu1+hold" {
			devs = mustMix(t, c.mix)
		}
		for _, util := range []float64{0.95, 1.2} {
			got[fmt.Sprintf("%s/%v/util%g", c.mix, c.pol, util)] = run(t, Config{
				Graph:         g,
				Devices:       devs,
				Policy:        c.pol,
				MeanArrivalMs: ArrivalForUtilization(g, devs, util),
				Requests:      2000,
				JitterFrac:    0.2,
				Seed:          7,
			})
		}
	}
	pin.Check(t, "hetsched_results", got)
}
