package cluster

// The copy order. Every run — open or closed loop — consumes
// sub-request copies in one (arrive, seq, attempt) total order from one
// copyHeap, popped copy by copy because arrivals keep scheduling copies
// mid-run. The heap holds each sub-request's
// next live copy only; the rest wait in the sub's chain (sim.go) until
// their predecessor is processed. copyCmp is the only definition of
// that order.

import "math"

// copyCmp is the (arrive, seq, attempt) total order. The tie key is the
// sub's monotone creation seq, which sub slot recycling never reuses
// (openRun.subs); no two copies share (seq, attempt), so the order is
// strict and any correct priority queue or unstable sort over it is
// deterministic.
func copyCmp(a, b subCopy) int {
	switch {
	case a.arrive < b.arrive:
		return -1
	case a.arrive > b.arrive:
		return 1
	case a.seq != b.seq:
		return a.seq - b.seq
	default:
		return a.attempt - b.attempt
	}
}

// copyHeap is the copy queue: a binary min-heap of subCopy in copyCmp
// order. It is deliberately not generic — copyCmp is called directly so
// the comparison inlines — and sifts by moving a hole rather than
// swapping. Every tier schedules a copy no earlier than the last one it
// processed, and Push enforces that monotone contract rather than
// silently misordering the simulation. pops counts the copies a run
// processed (tests pin it). The zero value is not ready; call reset
// first.
type copyHeap struct {
	h     []subCopy
	floor float64 // arrive of the last popped copy (-Inf before any pop)
	pops  int     // copies popped since reset
}

// reset empties the heap, keeping its capacity. subCopy holds no
// pointers, so nothing needs zeroing.
func (q *copyHeap) reset() {
	q.h = q.h[:0]
	q.floor = math.Inf(-1)
	q.pops = 0
}

// Len returns the number of queued copies.
func (q *copyHeap) Len() int { return len(q.h) }

// Min returns the least copy without removing it. Panics when empty.
func (q *copyHeap) Min() subCopy { return q.h[0] }

// Push queues c. Panics when c arrives before the last popped copy.
func (q *copyHeap) Push(c subCopy) {
	if c.arrive < q.floor {
		panic("cluster: copy push violates monotone-time contract")
	}
	q.h = append(q.h, c)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if copyCmp(c, h[p]) >= 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
}

// Pop removes and returns the least copy. Panics when empty.
func (q *copyHeap) Pop() subCopy {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.h = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && copyCmp(h[r], h[c]) < 0 {
			c = r
		}
		if copyCmp(last, h[c]) <= 0 {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	q.floor = top.arrive
	q.pops++
	return top
}
