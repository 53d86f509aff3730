package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCopyWheelOrderMatchesSort pins the open-loop copy wheel to the
// closed-loop sort: random monotone schedules pushed through the
// production wheel geometry pop in exactly slices.SortFunc(copyCmp)
// order. Schedules follow the simulator's contract — every sub takes
// the next seq and its copies arrive no earlier than the last pop — and
// are built to hit every tie: arrivals quantized onto a coarse grid
// (arrive ties across subs), attempts sharing one instant (seq ties
// broken by attempt), pushes at exactly the last popped instant, and
// pushes past one ring revolution into overflow. One arena recycles the
// wheel across seeds, so Reset is covered too.
func TestCopyWheelOrderMatchesSort(t *testing.T) {
	revolution := openWheelWidthMs * openWheelBuckets
	a := &runArena{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := a.copyQueueSet(1)[0]
		var pushed, popped []subCopy
		now, seq := 0.0, 0
		for step := 0; step < 400; step++ {
			for n := rng.Intn(4); n > 0; n-- {
				var base float64
				switch r := rng.Intn(10); {
				case r == 0:
					base = now // tie with the last pop
				case r == 1:
					base = now + revolution*(1+2*rng.Float64()) // overflow
				default:
					base = now + float64(rng.Intn(16))*0.125 // grid ties
				}
				for attempt := rng.Intn(3); attempt >= 0; attempt-- {
					c := subCopy{arrive: base, sub: seq, seq: seq, attempt: attempt}
					if rng.Intn(2) == 0 {
						c.arrive += float64(rng.Intn(4)) * openWheelWidthMs
					}
					w.Push(c)
					pushed = append(pushed, c)
				}
				seq++
			}
			for n := rng.Intn(5); n > 0 && w.Len() > 0; n-- {
				c := w.Pop()
				now = c.arrive
				popped = append(popped, c)
			}
		}
		for w.Len() > 0 {
			popped = append(popped, w.Pop())
		}
		want := slices.Clone(pushed)
		slices.SortFunc(want, copyCmp)
		for i := range want {
			if popped[i] != want[i] {
				t.Fatalf("seed %d: pop %d of %d is %+v, sort order has %+v", seed, i, len(want), popped[i], want[i])
			}
			// Strictness proves the schedule is a total order, so the
			// unstable sort's order is the only correct one.
			if i > 0 && copyCmp(want[i-1], want[i]) >= 0 {
				t.Fatalf("seed %d: schedule repeats a (arrive, seq, attempt) key: %+v", seed, want[i])
			}
		}
	}
}

// TestOpenLoopDispatchAllocs extends the zero-alloc guards to open-loop
// dispatch: pushing and popping scheduled copies through the copy wheel
// must not allocate in steady state.
func TestOpenLoopDispatchAllocs(t *testing.T) {
	copies := make([]subCopy, 64)
	for i := range copies {
		copies[i] = subCopy{arrive: float64(i%13) * 0.3, sub: i, seq: i, attempt: i % 3}
	}
	// The last copy lands exactly one ring revolution ahead
	// (openWheelWidthMs × openWheelBuckets), so each cycle advances the
	// wheel by a whole revolution: every cycle reuses the same ring
	// slots and one warm cycle settles all bucket capacities.
	copies[len(copies)-1].arrive = openWheelWidthMs * openWheelBuckets
	q := newCopyWheel()
	base := 0.0 // keeps pushes monotone across cycles
	cycle := func() {
		start := base
		for _, c := range copies {
			c.arrive += start
			q.Push(c)
		}
		for q.Len() > 0 {
			base = q.Pop().arrive
		}
	}
	for i := 0; i < 8; i++ { // warm bucket/overflow capacity
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Errorf("wheel dispatch allocated %.0f times per cycle, want 0", allocs)
	}
}
