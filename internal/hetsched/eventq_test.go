package hetsched

import (
	"testing"

	"dlrmsim/internal/check"
)

// TestTimerHeapMatchesScan drives every mix and policy, including the
// batching fleets where hold-window timers are armed, re-armed, and
// cancelled, with check mode on: run() then re-derives every timer-heap
// pop with a linear scan over device state, and any disagreement in
// (time, lowest device index) panics.
func TestTimerHeapMatchesScan(t *testing.T) {
	if !check.Enabled {
		t.Fatal("hetsched tests must run in check mode (TestMain)")
	}
	g := testGraph()
	for _, mix := range Mixes {
		devs, err := NewMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range AllPolicies {
			_, err := Simulate(Config{
				Graph:         g,
				Devices:       devs,
				Policy:        pol,
				MeanArrivalMs: ArrivalForUtilization(g, devs, 0.75),
				Requests:      400,
				JitterFrac:    0.2,
				Seed:          7,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", mix, pol, err)
			}
		}
	}
}
