package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCopyHeapOrderMatchesSort pins the copy heap to the one-shot sort:
// random monotone schedules pushed through it pop in exactly
// slices.SortFunc(copyCmp) order. Schedules follow the simulator's
// contract — every sub takes the next seq and its copies arrive no
// earlier than the last pop — and are built to hit every tie: arrivals
// quantized onto a coarse grid (arrive ties across subs), attempts
// sharing one instant (seq ties broken by attempt), and pushes at
// exactly the last popped instant. One heap is reset and reused across
// seeds, so its reset is covered too.
func TestCopyHeapOrderMatchesSort(t *testing.T) {
	var q copyHeap
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q.reset()
		var pushed, popped []subCopy
		now, seq := 0.0, 0
		for step := 0; step < 400; step++ {
			for n := rng.Intn(4); n > 0; n-- {
				base := now // tie with the last pop
				if rng.Intn(10) != 0 {
					base += float64(rng.Intn(16)) * 0.125 // grid ties
				}
				for attempt := rng.Intn(3); attempt >= 0; attempt-- {
					c := subCopy{arrive: base, sub: seq, seq: seq, attempt: attempt}
					if rng.Intn(2) == 0 {
						c.arrive += float64(rng.Intn(4)) * 0.25
					}
					q.Push(c)
					pushed = append(pushed, c)
				}
				seq++
			}
			for n := rng.Intn(5); n > 0 && q.Len() > 0; n-- {
				c := q.Pop()
				now = c.arrive
				popped = append(popped, c)
			}
		}
		for q.Len() > 0 {
			popped = append(popped, q.Pop())
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

// TestOpenLoopDispatchAllocs extends the zero-alloc guards to copy
// dispatch: pushing and popping scheduled copies through the copy heap
// must not allocate in steady state.
func TestOpenLoopDispatchAllocs(t *testing.T) {
	copies := make([]subCopy, 64)
	for i := range copies {
		copies[i] = subCopy{arrive: float64(i%13) * 0.3, sub: i, seq: i, attempt: i % 3}
	}
	var q copyHeap
	q.reset()
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
	cycle() // grow the heap's backing array
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Errorf("heap dispatch allocated %.0f times per cycle, want 0", allocs)
	}
}

// FuzzCopyOrder drives the copy heap and a reference — the pending set
// re-sorted by slices.SortFunc(copyCmp) before every pop — through an
// arbitrary interleaving of pushes and pops decoded from the fuzz input,
// two bytes per operation. Pushes respect the monotone contract (arrive
// offsets from the last pop on a coarse grid, so arrive and seq ties are
// common); a third kind of operation pushes below the last pop and must
// panic without disturbing the heap. Every pop must match the reference,
// and the heap must drain to exactly the reference's remainder.
func FuzzCopyOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 0, 0, 0, 7, 3, 1, 5, 0, 0, 0, 0})
	f.Add([]byte{0x41, 2, 0x81, 2, 0x21, 0, 0, 0, 0x01, 0, 7, 0, 0, 0, 0, 0})
	f.Add(func() []byte {
		var b []byte
		for i := 0; i < 64; i++ {
			b = append(b, byte(i*37), byte(i))
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		var q copyHeap
		q.reset()
		var pending []subCopy
		now, seq, pops := 0.0, 0, 0
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch {
			case op%4 == 0 && len(pending) > 0:
				slices.SortFunc(pending, copyCmp)
				want := pending[0]
				pending = slices.Delete(pending, 0, 1)
				if got := q.Pop(); got != want {
					t.Fatalf("pop %d: heap %+v, sort order %+v", pops, got, want)
				}
				now = want.arrive
				pops++
			case op%8 == 7 && pops > 0:
				c := subCopy{arrive: now - float64(arg%8+1)*0.125, seq: seq}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("push at %g after a pop at %g did not panic", c.arrive, now)
						}
					}()
					q.Push(c)
				}()
			default:
				// One sub: 1–3 attempts, sharing an instant when arg's
				// high bit is clear.
				for attempt := int(op>>6) % 3; attempt >= 0; attempt-- {
					c := subCopy{arrive: now + float64(arg%16)*0.125, sub: seq, seq: seq, attempt: attempt}
					if arg&0x80 != 0 {
						c.arrive += float64(attempt) * 0.25
					}
					q.Push(c)
					pending = append(pending, c)
				}
				seq++
			}
			if q.Len() != len(pending) {
				t.Fatalf("heap holds %d copies, reference %d", q.Len(), len(pending))
			}
		}
		slices.SortFunc(pending, copyCmp)
		for i, want := range pending {
			if got := q.Pop(); got != want {
				t.Fatalf("drain %d: heap %+v, sort order %+v", i, got, want)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("heap retains %d copies after the reference drained", q.Len())
		}
	})
}

// TestCopyHeapPopsPinned pins how many copies a run pops off its copy
// heap on two bench fixtures, the chaos day and the faulted closed loop,
// each with its arrivals drawn inline and on two goroutines: the pops
// must not depend on the pre-draw. A sub-request's hedge and
// retries enter the heap only while no response has beaten their launch
// deadline (sim.go's queueNext), so each count is the primaries, each
// query's last copy, and the conditional copies still live when their
// predecessor was processed. Queuing every planned copy popped 1,829,793
// and 39,476 copies; a change that queues beaten copies again fails here.
func TestCopyHeapPopsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		parts int
		want  int
	}{
		{"chaos day", chaosBenchConfig(t), 1, 732221},
		{"chaos day", chaosBenchConfig(t), 2, 732221},
		{"faulted closed loop", benchConfig(t, true), 1, 11497},
		{"faulted closed loop", benchConfig(t, true), 2, 11497},
	} {
		cfg := tc.cfg
		if err := cfg.applyDefaults(); err != nil {
			t.Fatal(err)
		}
		r, err := newOpenRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.loop(tc.parts)
		if got := r.copies.pops; got != tc.want {
			t.Errorf("%s with %d pre-draw goroutines popped %d copies, want %d", tc.name, tc.parts, got, tc.want)
		}
	}
}
