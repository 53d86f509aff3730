package hetsched

import (
	"math"

	"dlrmsim/internal/eventq"
)

// devTimer is one scheduled device event: a batch completion (busyEnd)
// or a hold-window deadline (holdAt). Timers are invalidated lazily: a
// device's generation counter bumps whenever its event changes, and
// pop skips entries whose gen is stale. The tie order is (time, device
// index): the lowest index wins, as scanTimer's strict-less scan gives.
type devTimer struct {
	t   float64
	dev int32
	gen uint32
}

func devTimerLess(a, b devTimer) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.dev < b.dev
}

// timerSet schedules device d's (only) live event at time t,
// invalidating any previously scheduled one.
func (st *simState) timerSet(d int, t float64) {
	st.devGen[d]++
	st.timers.Push(devTimer{t: t, dev: int32(d), gen: st.devGen[d]})
}

// timerClear invalidates device d's scheduled event (if any) without
// scheduling a new one.
func (st *simState) timerClear(d int) {
	st.devGen[d]++
}

// nextTimer peeks the earliest live device event, draining stale
// entries off the front. Returns (+Inf, -1) when no device has one.
func (st *simState) nextTimer() (tE float64, dev int) {
	for st.timers.Len() > 0 {
		e := st.timers.Min()
		if e.gen != st.devGen[e.dev] {
			st.timers.Pop()
			continue
		}
		return e.t, int(e.dev)
	}
	return math.Inf(1), -1
}

// scanTimer is nextTimer's check-mode oracle: a linear scan over every
// device's state for its live event, strict-less so the lowest index
// wins ties. Returns (+Inf, -1) when no device has one.
func (st *simState) scanTimer() (tE float64, dev int) {
	tE, dev = math.Inf(1), -1
	for d := range st.specs {
		var cand float64
		switch {
		case st.busy[d]:
			cand = st.busyEnd[d]
		case st.holdArmed[d]:
			cand = st.holdAt[d]
		default:
			continue
		}
		if cand < tE {
			tE, dev = cand, d
		}
	}
	return tE, dev
}

func newDevTimers(nDev int) *eventq.Heap[devTimer] {
	h := eventq.NewHeap(devTimerLess)
	// Room for one live timer per device plus a stale tail; grows on
	// demand past this.
	h.Grow(4 * nDev)
	return h
}
