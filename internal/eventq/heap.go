// Package eventq is the shared event-scheduling core for the
// discrete-event tiers (closed/open-loop cluster, hetsched). It offers
// two priority-queue backends over one contract:
//
//   - Heap[T]: a generic binary min-heap. Unlike container/heap it is
//     monomorphized per element type — Push/Pop move T values directly,
//     with no interface boxing, so pushing a struct does not allocate.
//   - Wheel[T]: a calendar-queue timing wheel for monotone event time,
//     O(1) amortized push/pop when the bucket width matches the event
//     density (see wheel.go).
//
// Both pop in the exact total order of the supplied comparator, so
// either can stand in for a global sort: FuzzEventOrder drives random
// schedules through heap, wheel, and a reference sort in lockstep.
package eventq

// Heap is a binary min-heap ordered by a caller-supplied strict
// comparator. The zero value is not ready; use NewHeap.
type Heap[T any] struct {
	less func(a, b T) bool
	s    []T
}

// NewHeap returns an empty heap ordered by less, which must be a strict
// weak ordering. Simulators pass a total order (every tie broken) so
// pop order is deterministic and backend-independent.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of queued elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// Reset empties the heap, keeping its capacity for reuse.
func (h *Heap[T]) Reset() { h.s = h.s[:0] }

// Grow ensures capacity for n additional elements without reallocation.
func (h *Heap[T]) Grow(n int) {
	if need := len(h.s) + n; need > cap(h.s) {
		s := make([]T, len(h.s), need)
		copy(s, h.s)
		h.s = s
	}
}

// Push adds v. Amortized O(1) append plus O(log n) sift.
func (h *Heap[T]) Push(v T) {
	h.s = append(h.s, v)
	h.up(len(h.s) - 1)
}

// Min returns the least element without removing it. Panics when empty.
func (h *Heap[T]) Min() T { return h.s[0] }

// Pop removes and returns the least element. Panics when empty.
func (h *Heap[T]) Pop() T {
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	var zero T
	s[n] = zero // release references held by the vacated slot
	h.s = s[:n]
	if n > 1 {
		h.down(0)
	}
	return top
}

func (h *Heap[T]) up(i int) {
	s := h.s
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	s := h.s
	n := len(s)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(s[r], s[l]) {
			m = r
		}
		if !h.less(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}
