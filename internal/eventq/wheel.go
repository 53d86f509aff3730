// Package eventq is the event-scheduling core of the cluster tiers'
// copy queues (closed and open loop): Wheel[T], a calendar-queue timing
// wheel for monotone event time, O(1) amortized push/pop when the bucket
// width matches the event density. It pops in the exact total order of
// the supplied comparator, so it can stand in for a global sort:
// FuzzEventOrder drives random schedules through the wheel and a linear
// min-scan reference in lockstep.
package eventq

import (
	"math"
	"slices"
)

// Wheel is a calendar-queue timing wheel: a ring of time buckets of
// fixed width, plus an overflow area for events beyond the ring's
// horizon. It assumes MONOTONE insertion time — an event may never be
// pushed with a time earlier than the last popped event's time — which
// every tier here satisfies (an event scheduled at simulation time t
// fires at >= t). Under that contract:
//
//   - Push appends to the event's future bucket unsorted (O(1)), or
//     binary-search-inserts into the in-drain bucket (rare).
//   - A bucket is sorted with the FULL comparator only when the wheel
//     advances into it, so pop order equals the comparator's total
//     order exactly — byte-identical to a heap or a global sort.
//   - Events beyond the horizon (ring span) go to the overflow list and
//     are redistributed one revolution at a time; with a bucket width
//     near the inter-event spacing the overflow stays near-empty and
//     both Push and Pop are O(1) amortized, versus O(log n) for a heap
//     holding the same events.
//
// The zero value is not ready; use NewWheel.
type Wheel[T any] struct {
	time func(T) float64
	less func(a, b T) bool

	width   float64
	origin  float64
	buckets []bucket[T]
	curAbs  int64 // absolute index (since origin) of the in-drain bucket
	ringLen int   // events resident in ring buckets
	overNew []T   // overflow: events at absolute bucket >= horizon
	horizon int64 // first absolute index NOT held by the ring

	// Backing arrays of drained buckets, handed to the next empty bucket
	// that fills: storage tracks the buckets in flight, not every bucket
	// the ring has touched since it was built.
	spare [][]T

	maxPopped float64 // high-water mark enforcing the monotone contract
	popped    bool
}

type bucket[T any] struct {
	events []T
	head   int  // consumed prefix of events (in-drain bucket only)
	sorted bool // events[head:] is comparator-sorted
}

// NewWheel returns a wheel of `buckets` slots of `width` time units,
// starting at time start. time extracts an event's fire time; less is
// the full total order (time-primary, all ties broken) that pops obey.
func NewWheel[T any](width float64, buckets int, start float64, time func(T) float64, less func(a, b T) bool) *Wheel[T] {
	if width <= 0 || buckets <= 0 {
		panic("eventq: wheel needs positive width and bucket count")
	}
	return &Wheel[T]{
		time:    time,
		less:    less,
		width:   width,
		origin:  start,
		buckets: make([]bucket[T], buckets),
		horizon: int64(buckets),
	}
}

// Len returns the number of queued events.
func (w *Wheel[T]) Len() int { return w.ringLen + len(w.overNew) }

// Reset empties the wheel and rebases it at time start, keeping every
// bucket's and spare's capacity — the arena-reuse hook for per-run (and, in the
// parallel cluster backend, per-partition) wheel recycling. Elements
// are zeroed so a reused wheel retains no references.
func (w *Wheel[T]) Reset(start float64) {
	var zero T
	for i := range w.buckets {
		b := &w.buckets[i]
		for j := range b.events {
			b.events[j] = zero
		}
		b.events = b.events[:0]
		b.head = 0
		b.sorted = false
	}
	for i := range w.overNew {
		w.overNew[i] = zero
	}
	w.overNew = w.overNew[:0]
	w.ringLen = 0
	w.origin = start
	w.curAbs = 0
	w.horizon = int64(len(w.buckets))
	w.maxPopped = 0
	w.popped = false
}

func (w *Wheel[T]) absIndex(t float64) int64 {
	i := int64(math.Floor((t - w.origin) / w.width))
	if i < w.curAbs {
		// Equal-time pushes can land a hair under the in-drain bucket's
		// lower edge through FP rounding; the monotone contract makes the
		// in-drain bucket the only legal home.
		i = w.curAbs
	}
	return i
}

// Push queues v. v's time must be >= the time of the last popped event
// (monotone contract); eventq panics otherwise rather than silently
// misordering the simulation.
func (w *Wheel[T]) Push(v T) {
	t := w.time(v)
	if w.popped && t < w.maxPopped {
		panic("eventq: wheel push violates monotone-time contract")
	}
	abs := w.absIndex(t)
	if abs >= w.horizon {
		w.overNew = append(w.overNew, v)
		return
	}
	b := &w.buckets[abs%int64(len(w.buckets))]
	if abs == w.curAbs && b.sorted {
		// The in-drain bucket stays sorted: insert at the comparator
		// position within the unconsumed tail.
		lo, hi := b.head, len(b.events)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if w.less(b.events[mid], v) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		b.events = append(b.events, v)
		copy(b.events[lo+1:], b.events[lo:])
		b.events[lo] = v
	} else {
		w.appendTo(b, v)
	}
	w.ringLen++
}

// appendTo appends v to b, first giving an empty bucket a spare backing
// array.
func (w *Wheel[T]) appendTo(b *bucket[T], v T) {
	if b.events == nil {
		if n := len(w.spare); n > 0 {
			b.events = w.spare[n-1]
			w.spare = w.spare[:n-1]
		}
	}
	b.events = append(b.events, v)
}

// Pop removes and returns the least event by the full comparator.
// Panics when empty.
func (w *Wheel[T]) Pop() T {
	b := w.advance()
	v := b.events[b.head]
	var zero T
	b.events[b.head] = zero
	b.head++
	w.ringLen--
	if b.head == len(b.events) {
		w.spare = append(w.spare, b.events[:0])
		b.events = nil
		b.head = 0
		b.sorted = false
	}
	w.maxPopped = w.time(v)
	w.popped = true
	return v
}

// Min returns the least event without removing it. Panics when empty.
func (w *Wheel[T]) Min() T {
	b := w.advance()
	return b.events[b.head]
}

// advance moves curAbs to the first non-empty bucket, redistributing
// overflow as revolutions complete, and returns that bucket sorted and
// non-empty. Panics when the wheel is empty.
func (w *Wheel[T]) advance() *bucket[T] {
	if w.Len() == 0 {
		panic("eventq: empty wheel")
	}
	n := int64(len(w.buckets))
	for {
		if w.ringLen == 0 {
			// Ring drained: jump straight to the earliest overflow
			// revolution instead of stepping through empty buckets.
			minAbs := w.absIndex(w.time(w.overNew[0]))
			for _, v := range w.overNew[1:] {
				if a := w.absIndex(w.time(v)); a < minAbs {
					minAbs = a
				}
			}
			w.curAbs = minAbs
			w.horizon = w.curAbs + n
			w.redistribute()
			continue
		}
		b := &w.buckets[w.curAbs%n]
		if b.head < len(b.events) {
			if !b.sorted {
				w.sortBucket(b)
			}
			return b
		}
		w.curAbs++
		if w.curAbs == w.horizon {
			// A full revolution completed: extend the horizon and pull
			// newly-in-range overflow events into the ring.
			w.horizon += n
			w.redistribute()
		}
	}
}

// redistribute moves overflow events whose bucket now falls inside
// [curAbs, horizon) into the ring.
func (w *Wheel[T]) redistribute() {
	kept := w.overNew[:0]
	for _, v := range w.overNew {
		abs := w.absIndex(w.time(v))
		if abs < w.horizon {
			b := &w.buckets[abs%int64(len(w.buckets))]
			w.appendTo(b, v)
			b.sorted = false
			w.ringLen++
		} else {
			kept = append(kept, v)
		}
	}
	var zero T
	for i := len(kept); i < len(w.overNew); i++ {
		w.overNew[i] = zero
	}
	w.overNew = kept
}

// sortBucket comparator-sorts the bucket's events. Buckets are tiny
// when the width matches the event density (insertion sort); a
// mis-sized or deliberately coarse wheel degrades to one O(k log k)
// sort per bucket, never O(k²). Either path yields the comparator's
// unique total order, so the choice is unobservable.
func (w *Wheel[T]) sortBucket(b *bucket[T]) {
	s := b.events[b.head:]
	if len(s) > 32 {
		slices.SortFunc(s, func(a, b T) int {
			switch {
			case w.less(a, b):
				return -1
			case w.less(b, a):
				return 1
			default:
				return 0
			}
		})
		b.sorted = true
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for j > 0 && w.less(v, s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
	b.sorted = true
}
