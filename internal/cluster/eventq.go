package cluster

// The copy order. Every run — open or closed loop — consumes
// sub-request copies in one (arrive, seq, attempt) total order: the
// sequential driver drains an eventq.Wheel because arrivals keep
// scheduling copies mid-run, and the parallel driver re-sorts each
// conservative window gathered from its per-partition wheels. copyCmp is
// the only definition of that order.

import "dlrmsim/internal/eventq"

// copyCmp is the (arrive, seq, attempt) total order. The tie key is the
// sub's monotone creation seq, which equals the slot index except under
// stream-stats slot recycling (sim.go); no two copies share (seq,
// attempt), so unstable sorts over it are deterministic.
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

// Wheel geometry for the copy queue: copies land within a few service
// times of the current instant, so a quarter-millisecond bucket keeps
// buckets near-singleton at production QPS while 4096 of them (a ~1s
// horizon) keep the overflow area essentially empty.
const (
	openWheelWidthMs = 0.25
	openWheelBuckets = 4096
)

// newCopyWheel returns an empty copy queue starting at time 0.
func newCopyWheel() *eventq.Wheel[subCopy] {
	return eventq.NewWheel(openWheelWidthMs, openWheelBuckets, 0,
		func(c subCopy) float64 { return c.arrive },
		func(a, b subCopy) bool { return copyCmp(a, b) < 0 })
}
