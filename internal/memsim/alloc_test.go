package memsim

import "testing"

// TestHierarchyAccessSteadyStateZeroAlloc pins the per-access demand path
// to zero heap allocations once warm. The hot loop spends its life here
// (see DESIGN.md §9); a regression that reintroduces a per-miss slice —
// e.g. a prefetcher returning a fresh candidate list instead of appending
// to the hierarchy's scratch — turns into GC pressure across every
// simulated cycle, so it is guarded as a correctness property, not left
// to benchmark review.
func TestHierarchyAccessSteadyStateZeroAlloc(t *testing.T) {
	p := benchParams()
	h := NewHierarchy(p, NewShared(p))
	h.HWPrefetchEnabled = true
	addrs := benchAddrs(1 << 12)
	mask := len(addrs) - 1

	// Warm up: grow the prefetch scratch and the stride table's slot map
	// to their steady-state footprint.
	var now int64
	for _, a := range addrs {
		h.Access(now, a, KindLoad)
		now += 4
	}

	i := 0
	avg := testing.AllocsPerRun(200, func() {
		h.Access(now, addrs[i&mask], KindLoad)
		now += 4
		i++
	})
	if avg != 0 {
		t.Fatalf("Hierarchy.Access allocates %.2f objects per access in steady state; want 0", avg)
	}
}

// TestCacheLookupFillZeroAlloc pins the single-level Lookup/Fill pair to
// zero allocations from construction onward — the split tag/metadata
// arrays are sized once in NewCache and never grow.
func TestCacheLookupFillZeroAlloc(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 5})
	addrs := benchAddrs(1 << 10)
	mask := len(addrs) - 1
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		a := addrs[i&mask]
		if _, hit := c.Lookup(a, true, int64(i)); !hit {
			c.Fill(a, int64(i), false)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Cache Lookup/Fill allocates %.2f objects per access; want 0", avg)
	}
}

// TestCacheReshapeWithinCapacityZeroAlloc pins Cache.Reshape's reuse: a
// reshape to a geometry whose lines and sets fit the arrays the cache
// already holds (fewer sets, fewer ways, more ways) allocates nothing.
func TestCacheReshapeWithinCapacityZeroAlloc(t *testing.T) {
	geoms := []CacheConfig{
		{Name: "A", SizeBytes: 64 << 10, Ways: 4, LatencyCyc: 4},  // 256 sets, 1024 lines
		{Name: "B", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 4},  // 64 sets, 512 lines
		{Name: "C", SizeBytes: 48 << 10, Ways: 12, LatencyCyc: 4}, // 64 sets, 768 lines
		{Name: "D", SizeBytes: 16 << 10, Ways: 1, LatencyCyc: 4},  // 256 sets, 256 lines
	}
	c := NewCache(geoms[0])
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		i++
		c.Reshape(geoms[i%len(geoms)])
	})
	if avg != 0 {
		t.Fatalf("Cache.Reshape within capacity allocates %.2f objects; want 0", avg)
	}
}
