package memsim

import "testing"

// benchParams is a Cascade-Lake-shaped hierarchy with a reduced LLC so the
// benchmark's working set exercises every level without an 18 MB Reset
// dominating setup.
func benchParams() MemParams {
	return MemParams{
		L1:   CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 5},
		L2:   CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, LatencyCyc: 14},
		L3:   CacheConfig{Name: "L3", SizeBytes: 8 << 20, Ways: 11, LatencyCyc: 50},
		DRAM: DRAMConfig{BaseLatencyCyc: 220, PeakBandwidthBytesPerCyc: 58, QueueSensitivity: 1},
	}
}

// benchAddrs builds a deterministic access string shaped like the embedding
// stage: short sequential bursts (the within-row pooling walk) separated by
// pseudo-random jumps between rows (the row-to-row indirection).
func benchAddrs(n int) []Addr {
	addrs := make([]Addr, n)
	state := uint64(0x9E3779B97F4A7C15)
	var row Addr
	for i := range addrs {
		if i%8 == 0 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			row = Addr(state % (1 << 26)) // 64 MB footprint: misses at every level
		}
		addrs[i] = LineAddr(row) + Addr(i%8)*LineSize
	}
	return addrs
}

// BenchmarkHierarchyAccess measures the full demand path — L1→L2→L3→DRAM
// probes, inclusive fills, and hardware-prefetcher training — per access.
func BenchmarkHierarchyAccess(b *testing.B) {
	p := benchParams()
	sh := NewShared(p)
	h := NewHierarchy(p, sh)
	h.HWPrefetchEnabled = true
	addrs := benchAddrs(1 << 14)
	mask := len(addrs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	var now int64
	for i := 0; i < b.N; i++ {
		h.Access(now, addrs[i&mask], KindLoad)
		now += 4
	}
}

// BenchmarkHierarchyAccessCold measures the same demand path in the
// regime every engine cell runs in: the hierarchy is Reset every few
// thousand accesses, as each cell's reused System is, so most fills land
// in sets not yet full — where BenchmarkHierarchyAccess's 64 MB footprint
// keeps every set full.
func BenchmarkHierarchyAccessCold(b *testing.B) {
	const resetEvery = 4096
	p := benchParams()
	sh := NewShared(p)
	h := NewHierarchy(p, sh)
	h.HWPrefetchEnabled = true
	addrs := benchAddrs(1 << 14)
	mask := len(addrs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	var now int64
	for i := 0; i < b.N; i++ {
		if i%resetEvery == 0 {
			h.Reset()
			sh.Reset()
		}
		h.Access(now, addrs[i&mask], KindLoad)
		now += 4
	}
}

// BenchmarkCacheLookupHit isolates the tag-scan hit path of one level.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := NewCache(CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, LatencyCyc: 14})
	addrs := make([]Addr, 256)
	for i := range addrs {
		addrs[i] = Addr(i) * LineSize
		c.Fill(addrs[i], 0, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(addrs[i&255], true, int64(i))
	}
}

// BenchmarkCacheFillEvict isolates the victim-selection path: every fill
// lands in a full set and evicts its LRU line.
func BenchmarkCacheFillEvict(b *testing.B) {
	c := NewCache(CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 5})
	addrs := benchAddrs(1 << 12)
	mask := len(addrs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(addrs[i&mask], int64(i), false)
	}
}

// gatherAddrs builds a gather-shaped access string: rows of `run`
// consecutive addresses (several per line, lines back to back)
// separated by pseudo-random row jumps.
func gatherAddrs(n, run int) []Addr {
	addrs := make([]Addr, n)
	state := uint64(0x2545F4914F6CDD1D)
	var row Addr
	for i := range addrs {
		if i%run == 0 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			row = Addr(state % (1 << 24))
		}
		addrs[i] = row + Addr(i%run)*16 // 4 accesses per 64 B line
	}
	return addrs
}

// BenchmarkAccessSequential measures a gather-shaped walk, one Access
// per element, where runs of accesses fall in one line and hit L1.
func BenchmarkAccessSequential(b *testing.B) {
	p := benchParams()
	h := NewHierarchy(p, NewShared(p))
	h.HWPrefetchEnabled = true
	addrs := gatherAddrs(1<<13, 8)
	b.ReportAllocs()
	b.ResetTimer()
	var now int64
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			h.Access(now, a, KindLoad)
		}
		now += 1000
	}
	b.SetBytes(int64(len(addrs)))
}
