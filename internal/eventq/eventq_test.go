package eventq

import (
	"math/rand"
	"slices"
	"testing"
)

// ev mirrors the simulators' event shape: a fire time plus tie-break
// fields giving a unique total order.
type ev struct {
	t   float64
	sub int
	gen int
}

func evTime(e ev) float64 { return e.t }

func evLess(a, b ev) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return a.gen < b.gen
}

func evCmp(a, b ev) int {
	switch {
	case evLess(a, b):
		return -1
	case evLess(b, a):
		return 1
	default:
		return 0
	}
}

// randomEvents builds n events with clustered times (duplicates
// included) so tie-breaking is exercised.
func randomEvents(rng *rand.Rand, n int) []ev {
	out := make([]ev, n)
	for i := range out {
		out[i] = ev{
			t:   float64(rng.Intn(n/2+1)) * 0.73,
			sub: i,
			gen: rng.Intn(3),
		}
	}
	return out
}

// minScan is the tests' reference queue: a slice popped by a linear
// scan for the comparator's least element, too simple to get wrong.
type minScan []ev

func (q *minScan) push(e ev) { *q = append(*q, e) }

func (q *minScan) pop() ev {
	m := 0
	for i, e := range *q {
		if evLess(e, (*q)[m]) {
			m = i
		}
	}
	e := (*q)[m]
	*q = slices.Delete(*q, m, m+1)
	return e
}

func TestWheelInterleavedMonotone(t *testing.T) {
	// Push/pop interleaving with the monotone-time pattern the
	// simulators use: every push's time >= the last popped time.
	rng := rand.New(rand.NewSource(2))
	var ref minScan
	w := NewWheel(0.5, 16, 0, evTime, evLess)
	now := 0.0
	sub := 0
	for step := 0; step < 5000; step++ {
		if rng.Intn(3) > 0 || len(ref) == 0 {
			e := ev{t: now + float64(rng.Intn(40))*0.25, sub: sub}
			sub++
			ref.push(e)
			w.Push(e)
		} else {
			a, b := ref.pop(), w.Pop()
			if a != b {
				t.Fatalf("step %d: reference %+v wheel %+v", step, a, b)
			}
			now = a.t
		}
	}
	for len(ref) > 0 {
		if a, b := ref.pop(), w.Pop(); a != b {
			t.Fatalf("drain: reference %+v wheel %+v", a, b)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("wheel retains %d events", w.Len())
	}
}

func TestWheelMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Deliberately adversarial geometries: width far too small (deep
	// overflow churn), far too large (everything in one bucket), and a
	// single-bucket ring.
	for _, g := range []struct {
		width   float64
		buckets int
	}{{0.01, 4}, {1000, 8}, {0.73, 1}, {0.5, 64}} {
		for _, n := range []int{1, 2, 33, 500} {
			events := randomEvents(rng, n)
			w := NewWheel(g.width, g.buckets, 0, evTime, evLess)
			for _, e := range events {
				w.Push(e)
			}
			want := slices.Clone(events)
			slices.SortFunc(want, evCmp)
			for i, wantE := range want {
				if got := w.Min(); got != wantE {
					t.Fatalf("w=%g b=%d n=%d: Min[%d] = %+v, want %+v", g.width, g.buckets, n, i, got, wantE)
				}
				if got := w.Pop(); got != wantE {
					t.Fatalf("w=%g b=%d n=%d: pop[%d] = %+v, want %+v", g.width, g.buckets, n, i, got, wantE)
				}
			}
			if w.Len() != 0 {
				t.Fatalf("wheel not drained: %d left", w.Len())
			}
		}
	}
}

func TestWheelNegativeAndOffsetTimes(t *testing.T) {
	// Events before the wheel's start time and far beyond its horizon.
	w := NewWheel(1.0, 4, 100, evTime, evLess)
	events := []ev{{t: 99.5, sub: 0}, {t: 100, sub: 1}, {t: 1e6, sub: 2}, {t: 250, sub: 3}}
	for _, e := range events {
		w.Push(e)
	}
	want := slices.Clone(events)
	slices.SortFunc(want, evCmp)
	for _, e := range want {
		if got := w.Pop(); got != e {
			t.Fatalf("pop %+v, want %+v", got, e)
		}
	}
}

func TestWheelMonotoneViolationPanics(t *testing.T) {
	w := NewWheel(1.0, 8, 0, evTime, evLess)
	w.Push(ev{t: 5})
	w.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("push before last popped time did not panic")
		}
	}()
	w.Push(ev{t: 1})
}

func TestWheelSteadyStateAllocs(t *testing.T) {
	// After warmup, a monotone push/pop cycle reuses bucket storage.
	w := NewWheel(0.5, 32, 0, evTime, evLess)
	now := 0.0
	sub := 0
	cycle := func() {
		for i := 0; i < 8; i++ {
			w.Push(ev{t: now + float64(i)*0.4, sub: sub})
			sub++
		}
		for i := 0; i < 8; i++ {
			now = evTime(w.Pop())
		}
	}
	for i := 0; i < 64; i++ { // warm bucket capacity
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state wheel cycle allocated %.0f times, want 0", allocs)
	}
}

// TestWheelStorageTracksInFlight: a run that sweeps hundreds of buckets
// with only a few in flight at once keeps storage for the in-flight few,
// not one backing array per bucket touched — a recycled wheel would
// otherwise hold every event of its longest run.
func TestWheelStorageTracksInFlight(t *testing.T) {
	w := NewWheel(1.0, 1024, 0, evTime, evLess)
	sub := 0
	for now := 0; now < 800; now++ {
		for i := 0; i < 16; i++ {
			w.Push(ev{t: float64(now) + 0.05*float64(i), sub: sub})
			sub++
		}
		for w.Len() > 0 && w.Min().t < float64(now-4) {
			w.Pop()
		}
	}
	for w.Len() > 0 {
		w.Pop()
	}
	slots := 0
	for _, b := range w.buckets {
		slots += cap(b.events)
	}
	for _, s := range w.spare {
		slots += cap(s)
	}
	if slots > 16*16 {
		t.Fatalf("drained wheel keeps %d event slots for 800 buckets swept with ~6 in flight, want <= %d", slots, 16*16)
	}
}

func TestNewWheelValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewWheel(0, 8, 0, evTime, evLess) },
		func() { NewWheel(1, 0, 0, evTime, evLess) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid geometry did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestWheelResetReuse: a Reset wheel must behave exactly like a fresh
// NewWheel at the new start time — including after a partial drain that
// left events in the ring, the overflow area, and a half-consumed
// in-drain bucket — and steady-state reuse must not allocate.
func TestWheelResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := NewWheel(0.5, 8, 0, evTime, evLess)
	for round := 0; round < 4; round++ {
		start := float64(round * 1000)
		w.Reset(start)
		events := randomEvents(rng, 200)
		for i := range events {
			events[i].t += start
		}
		for _, e := range events {
			w.Push(e)
		}
		// Drain only half on odd rounds so Reset must clear mid-drain
		// bucket state and a non-empty overflow.
		want := slices.Clone(events)
		slices.SortFunc(want, evCmp)
		n := len(want)
		if round%2 == 1 {
			n /= 2
		}
		for i := 0; i < n; i++ {
			if got := w.Pop(); got != want[i] {
				t.Fatalf("round %d pop[%d] = %+v, want %+v", round, i, got, want[i])
			}
		}
	}
	// After the rounds grew every bucket, a full reuse cycle is
	// allocation-free.
	events := randomEvents(rng, 100)
	allocs := testing.AllocsPerRun(20, func() {
		w.Reset(0)
		for _, e := range events {
			w.Push(e)
		}
		for w.Len() > 0 {
			w.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("reused wheel allocated %.1f times per cycle, want 0", allocs)
	}
}

// TestWheelResetClearsMonotoneContract: Reset must forget the popped
// high-water mark, or a rebased wheel would panic on legitimately
// earlier times.
func TestWheelResetClearsMonotoneContract(t *testing.T) {
	w := NewWheel(1.0, 4, 100, evTime, evLess)
	w.Push(ev{t: 500})
	w.Pop()
	w.Reset(0)
	w.Push(ev{t: 1}) // earlier than the popped 500: legal after Reset
	if got := w.Pop(); got.t != 1 {
		t.Fatalf("popped %+v", got)
	}
}
