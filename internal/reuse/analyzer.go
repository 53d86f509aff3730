package reuse

import "dlrmsim/internal/stats"

// ColdDistance is returned by Access for a key's first touch.
const ColdDistance int64 = -1

// Analyzer computes the exact LRU stack distance of every access in a
// stream of keys. The distance of an access is the number of *distinct*
// keys touched since the previous access to the same key; a first touch is
// cold (ColdDistance). A fully-associative LRU cache holding C blocks hits
// exactly the accesses with distance < C — the mapping the paper's model
// uses to mark cache hit rates on its reuse-distance plots.
type Analyzer struct {
	bit      *fenwick
	lastSeen map[uint64]int
	clock    int
	hist     *stats.Histogram
}

// NewAnalyzer returns an Analyzer; capacityHint sizes internal structures
// for an expected trace length (0 is fine).
func NewAnalyzer(capacityHint int) *Analyzer {
	return &Analyzer{
		bit:      newFenwick(capacityHint),
		lastSeen: make(map[uint64]int),
		hist:     stats.NewHistogram(),
	}
}

// Access records one access and returns its stack distance (ColdDistance
// for a first touch).
func (a *Analyzer) Access(key uint64) int64 {
	a.clock++
	now := a.clock
	last, seen := a.lastSeen[key]
	var dist int64
	if seen {
		dist = int64(a.bit.rangeSum(last+1, now-1))
		a.bit.add(last, -1)
		a.hist.Add(dist)
	} else {
		dist = ColdDistance
		a.hist.AddInf()
	}
	a.bit.add(now, 1)
	a.lastSeen[key] = now
	return dist
}

// Histogram returns the log-bucketed distance histogram (cold misses are
// the infinite bucket). The histogram is live; callers must not retain it
// across further Access calls if they need a snapshot.
func (a *Analyzer) Histogram() *stats.Histogram { return a.hist }

// CapacityTracker counts, exactly, hits for a fixed set of cache
// capacities while the trace streams through — avoiding the bucket
// interpolation error of Histogram for the headline numbers.
type CapacityTracker struct {
	capacities []int64
	hits       []uint64
	total      uint64
	cold       uint64
}

// NewCapacityTracker returns a tracker for the given capacities (in
// blocks, ascending or not).
func NewCapacityTracker(capacities []int64) *CapacityTracker {
	return &CapacityTracker{
		capacities: append([]int64(nil), capacities...),
		hits:       make([]uint64, len(capacities)),
	}
}

// Record feeds one stack distance (from Analyzer.Access) to the tracker.
func (t *CapacityTracker) Record(dist int64) {
	t.total++
	if dist == ColdDistance {
		t.cold++
		return
	}
	for i, c := range t.capacities {
		if dist < c {
			t.hits[i]++
		}
	}
}

// HitRate returns the exact hit rate for capacity index i.
func (t *CapacityTracker) HitRate(i int) float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.hits[i]) / float64(t.total)
}

// Total returns the number of recorded accesses.
func (t *CapacityTracker) Total() uint64 { return t.total }

// ColdFraction returns the cold-miss fraction.
func (t *CapacityTracker) ColdFraction() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.cold) / float64(t.total)
}
