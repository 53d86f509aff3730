package eventq

import (
	"container/heap"
	"testing"
)

// benchEvent mirrors the simulators' event shape: a time plus tie keys.
type benchEvent struct {
	t    float64
	seq  int32
	kind int32
}

func benchLess(a, b benchEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func benchTime(e benchEvent) float64 { return e.t }

// boxedEventHeap is the container/heap baseline the wheel replaced:
// every Push and Pop moves the element through an `any` interface,
// allocating per scheduled event.
type boxedEventHeap []benchEvent

func (h boxedEventHeap) Len() int           { return len(h) }
func (h boxedEventHeap) Less(i, j int) bool { return benchLess(h[i], h[j]) }
func (h boxedEventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedEventHeap) Push(x any)        { *h = append(*h, x.(benchEvent)) }
func (h *boxedEventHeap) Pop() (popped any) {
	old := *h
	n := len(old) - 1
	popped = old[n]
	*h = old[:n]
	return
}

// benchQueue is the push/pop surface churn needs; both
// queues satisfy it (the boxed baseline via a tiny adapter).
type benchQueue interface {
	Len() int
	Push(benchEvent)
	Pop() benchEvent
}

type boxedAdapter struct{ h boxedEventHeap }

func (q *boxedAdapter) Len() int          { return q.h.Len() }
func (q *boxedAdapter) Push(e benchEvent) { heap.Push(&q.h, e) }
func (q *boxedAdapter) Pop() benchEvent   { return heap.Pop(&q.h).(benchEvent) }

// churn drives a queue through the simulators' steady-state shape: a
// standing population of pending events, each pop scheduling a short
// burst of near-future followers (a completion arming retries, fills,
// timers). Times are monotone non-decreasing from the popped event, the
// wheel's contract. Each iteration gets a fresh queue: a drained wheel
// keeps its clock, so reuse would push t=0 below the watermark.
func churn(b *testing.B, mk func() benchQueue, events int) {
	b.ReportAllocs()
	b.ResetTimer()
	const standing = 4096 // pending-event population, at-scale serving shape
	for i := 0; i < b.N; i++ {
		q := mk()
		state := uint64(0x9E3779B97F4A7C15)
		seq := int32(0)
		for p := 0; p < standing; p++ {
			q.Push(benchEvent{t: float64(p) * 0.013, seq: seq})
			seq++
		}
		now := 0.0
		for n := 0; n < events; n++ {
			e := q.Pop()
			if e.t > now {
				now = e.t
			}
			if q.Len() < standing {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				dt := float64(state%1024) / 4096 // 0..0.25 ms ahead
				q.Push(benchEvent{t: now + dt, seq: seq, kind: int32(n)})
				seq++
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	b.SetBytes(int64(events))
}

// BenchmarkEventQueue compares, on the same churn, the boxed
// container/heap baseline the simulators started with and the
// calendar-queue timing wheel.
func BenchmarkEventQueue(b *testing.B) {
	const events = 1 << 16
	b.Run("boxed", func(b *testing.B) {
		churn(b, func() benchQueue { return &boxedAdapter{} }, events)
	})
	b.Run("wheel", func(b *testing.B) {
		churn(b, func() benchQueue {
			// Width chosen for near-singleton steady-state buckets, the
			// same sizing rule the open-loop copy queue uses.
			return NewWheel(0.001, 4096, 0, benchTime, benchLess)
		}, events)
	})
}
