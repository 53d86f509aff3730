package reuse

import (
	"testing"
	"testing/quick"
)

// naiveStackDistance is the O(n²) reference implementation.
func naiveStackDistance(traceKeys []uint64) []int64 {
	out := make([]int64, len(traceKeys))
	for i, k := range traceKeys {
		last := -1
		for j := i - 1; j >= 0; j-- {
			if traceKeys[j] == k {
				last = j
				break
			}
		}
		if last == -1 {
			out[i] = ColdDistance
			continue
		}
		distinct := map[uint64]struct{}{}
		for j := last + 1; j < i; j++ {
			distinct[traceKeys[j]] = struct{}{}
		}
		out[i] = int64(len(distinct))
	}
	return out
}

func TestAnalyzerSimpleSequence(t *testing.T) {
	a := NewAnalyzer(0)
	// A B C A: A's second access has distance 2 (B, C touched between).
	keys := []uint64{1, 2, 3, 1}
	want := []int64{ColdDistance, ColdDistance, ColdDistance, 2}
	for i, k := range keys {
		if got := a.Access(k); got != want[i] {
			t.Fatalf("access %d: distance %d, want %d", i, got, want[i])
		}
	}
}

func TestAnalyzerImmediateReuse(t *testing.T) {
	a := NewAnalyzer(0)
	a.Access(7)
	if got := a.Access(7); got != 0 {
		t.Fatalf("back-to-back reuse distance = %d", got)
	}
}

func TestAnalyzerRepeatedPattern(t *testing.T) {
	a := NewAnalyzer(0)
	// Cyclic pattern of 3 keys: steady-state distance is 2.
	keys := []uint64{1, 2, 3, 1, 2, 3, 1, 2, 3}
	var dists []int64
	for _, k := range keys {
		dists = append(dists, a.Access(k))
	}
	for i := 3; i < len(dists); i++ {
		if dists[i] != 2 {
			t.Fatalf("cyclic distance at %d = %d, want 2", i, dists[i])
		}
	}
}

func TestAnalyzerMatchesNaive(t *testing.T) {
	f := func(raw []uint8) bool {
		keys := make([]uint64, len(raw))
		for i, r := range raw {
			keys[i] = uint64(r % 16) // force collisions
		}
		a := NewAnalyzer(len(keys))
		want := naiveStackDistance(keys)
		for i, k := range keys {
			if a.Access(k) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzerColdMissAccounting(t *testing.T) {
	a := NewAnalyzer(0)
	for _, k := range []uint64{1, 2, 3, 1, 2, 3} {
		a.Access(k)
	}
	h := a.Histogram()
	if h.InfCount() != 3 {
		t.Fatalf("cold misses = %d", h.InfCount())
	}
	if h.InfFraction() != 0.5 {
		t.Fatalf("cold fraction = %g", h.InfFraction())
	}
	if h.Count() != 6 {
		t.Fatalf("accesses = %d", h.Count())
	}
}

func TestAnalyzerHitRateLRUEquivalence(t *testing.T) {
	// Cyclic over 4 keys: an LRU cache of 4 blocks hits everything after
	// warmup, a cache of 3 blocks hits nothing (classic LRU thrash).
	a := NewAnalyzer(0)
	tr := NewCapacityTracker([]int64{3, 4})
	for i := 0; i < 400; i++ {
		tr.Record(a.Access(uint64(i % 4)))
	}
	if hr := tr.HitRate(0); hr != 0 {
		t.Fatalf("3-block LRU hit rate = %g, want 0 (thrash)", hr)
	}
	if hr := tr.HitRate(1); hr < 0.98 {
		t.Fatalf("4-block LRU hit rate = %g, want ~0.99", hr)
	}
}

func TestCapacityTrackerColdFraction(t *testing.T) {
	tr := NewCapacityTracker([]int64{8})
	tr.Record(ColdDistance)
	tr.Record(2)
	if tr.ColdFraction() != 0.5 {
		t.Fatalf("cold fraction = %g", tr.ColdFraction())
	}
	if tr.Total() != 2 {
		t.Fatalf("total = %d", tr.Total())
	}
	if tr.HitRate(0) != 0.5 {
		t.Fatalf("hit rate = %g", tr.HitRate(0))
	}
}

func TestFenwickBasics(t *testing.T) {
	f := newFenwick(8)
	f.add(3, 1)
	f.add(5, 1)
	if f.rangeSum(1, 8) != 2 {
		t.Fatalf("sum = %d", f.rangeSum(1, 8))
	}
	if f.rangeSum(4, 8) != 1 {
		t.Fatalf("tail sum = %d", f.rangeSum(4, 8))
	}
	f.add(3, -1)
	if f.rangeSum(1, 4) != 0 {
		t.Fatalf("after removal = %d", f.rangeSum(1, 4))
	}
}

func TestFenwickGrowth(t *testing.T) {
	f := newFenwick(2)
	f.add(1000, 1)
	if f.rangeSum(1, 2000) != 1 {
		t.Fatal("growth lost the value")
	}
	if f.rangeSum(5000, 6000) != 0 {
		t.Fatal("out-of-range sum nonzero")
	}
}
