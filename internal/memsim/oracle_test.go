package memsim

import (
	"math/rand"
	"testing"

	"dlrmsim/internal/check"
)

// refCache is the cache as it stood before sets kept a valid-way count:
// a stale set's tags are cleared on first touch, every probe scans all of
// the set's ways, and every fill rescans the whole set for the resident
// tag, the first invalid way and the LRU victim. It is the reference the
// differential tests below hold Cache to.
type refCache struct {
	cfg      CacheConfig
	tags     []uint64
	ready    []int64
	used     []int64
	pref     []bool
	setEpoch []uint64
	epoch    uint64
	ways     int
	setMask  uint64
	tagShift uint
	clock    int64
	Stats    CacheStats
}

// newRefCache builds a refCache with the same geometry NewCache derives.
func newRefCache(cfg CacheConfig) *refCache {
	c := NewCache(cfg)
	return &refCache{
		cfg:      cfg,
		tags:     make([]uint64, len(c.tags)),
		ready:    make([]int64, len(c.tags)),
		used:     make([]int64, len(c.tags)),
		pref:     make([]bool, len(c.tags)),
		setEpoch: make([]uint64, c.NumSets()),
		ways:     c.ways,
		setMask:  c.setMask,
		tagShift: c.tagShift,
	}
}

func (c *refCache) setBase(a Addr) (int, uint64) {
	la := uint64(a)
	set := int((la >> lineShift) & c.setMask)
	base := set * c.ways
	if c.setEpoch[set] != c.epoch {
		c.setEpoch[set] = c.epoch
		clear(c.tags[base : base+c.ways])
	}
	return base, (la>>c.tagShift)<<1 | 1
}

func (c *refCache) lookupAt(base int, want uint64, demand bool, now int64) (int, int64, bool) {
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] != want {
			continue
		}
		c.clock++
		c.used[i] = c.clock
		if demand {
			c.Stats.DemandHits++
			if c.pref[i] {
				c.Stats.PrefetchHits++
				c.pref[i] = false
			}
			if c.ready[i] > now {
				c.Stats.InFlightHits++
			}
		}
		return i, c.ready[i], true
	}
	if demand {
		c.Stats.DemandMisses++
	}
	return -1, 0, false
}

func (c *refCache) fill(a Addr, readyAt int64, prefetch bool) {
	base, want := c.setBase(a)
	c.fillAt(base, want, readyAt, prefetch)
}

func (c *refCache) fillAt(base int, want uint64, readyAt int64, prefetch bool) {
	c.clock++
	victim := base
	invalid := -1
	var victimUsed int64 = 1<<63 - 1
	for i := base; i < base+c.ways; i++ {
		switch {
		case c.tags[i] == want:
			if readyAt < c.ready[i] {
				c.ready[i] = readyAt
			}
			c.used[i] = c.clock
			return
		case c.tags[i] == 0:
			if invalid < 0 {
				invalid = i
			}
		case c.used[i] < victimUsed:
			victim, victimUsed = i, c.used[i]
		}
	}
	if invalid >= 0 {
		victim = invalid
	} else {
		c.Stats.Evictions++
		if c.pref[victim] {
			c.Stats.UselessPrefILL++
		}
	}
	c.tags[victim] = want
	c.ready[victim] = readyAt
	c.used[victim] = c.clock
	c.pref[victim] = prefetch
	if prefetch {
		c.Stats.PrefetchFills++
	}
}

func (c *refCache) refreshAt(idx int, readyAt int64) {
	c.clock++
	if readyAt < c.ready[idx] {
		c.ready[idx] = readyAt
	}
	c.used[idx] = c.clock
}

func (c *refCache) reset() {
	c.epoch++
	c.clock = 0
	c.Stats = CacheStats{}
}

// refHierarchy is Hierarchy's walk over refCaches. mem supplies only the
// DRAM timing; its L3 is unused.
type refHierarchy struct {
	l1, l2, l3 *refCache
	mem        *Shared
	l1pf       *NextLinePrefetcher
	l2pf       *StridePrefetcher
	pfBuf      []Addr
	hwPrefetch bool
	Stats      HierStats
}

func newRefHierarchy(p MemParams) *refHierarchy {
	return &refHierarchy{
		l1: newRefCache(p.L1), l2: newRefCache(p.L2), l3: newRefCache(p.L3),
		mem:        NewShared(p),
		l1pf:       NewNextLinePrefetcher(l1PrefetchDegree),
		l2pf:       NewStridePrefetcher(l2PrefetchDegree, 32),
		hwPrefetch: true,
	}
}

func (h *refHierarchy) reset() {
	h.l1.reset()
	h.l2.reset()
	h.l3.reset()
	h.mem.DRAM.Reset()
	h.l1pf.Reset()
	h.l2pf.Reset()
	h.Stats = HierStats{}
}

func (h *refHierarchy) access(now int64, a Addr, kind AccessKind) AccessResult {
	a = LineAddr(a)
	if kind.IsPrefetch() {
		h.Stats.SWPrefetches++
		target := LevelL1
		switch kind {
		case KindPrefetchL2:
			target = LevelL2
		case KindPrefetchL3:
			target = LevelL3
		}
		lvl, lat := h.pfAccess(now, a, target)
		return AccessResult{Level: lvl, Latency: lat}
	}
	if kind == KindLoad {
		h.Stats.Loads++
	} else {
		h.Stats.Stores++
	}
	record := func(lvl Level, lat int64) {
		h.Stats.LevelHits[lvl]++
		if kind == KindLoad {
			h.Stats.LoadLatencySum += lat
		}
	}
	b1, w1 := h.l1.setBase(a)
	if _, readyAt, hit := h.l1.lookupAt(b1, w1, true, now); hit {
		lat := residual(now, readyAt, h.l1.cfg.LatencyCyc)
		record(LevelL1, lat)
		return AccessResult{Level: LevelL1, Latency: lat, InFlightHit: readyAt > now}
	}
	if h.hwPrefetch {
		h.pfBuf = h.l1pf.OnDemandMiss(a, h.pfBuf[:0])
		for _, pa := range h.pfBuf {
			h.Stats.HWPrefetches++
			h.pfAccess(now, pa, LevelL2)
		}
	}
	b2, w2 := h.l2.setBase(a)
	if _, readyAt, hit := h.l2.lookupAt(b2, w2, true, now); hit {
		lat := residual(now, readyAt, h.l2.cfg.LatencyCyc)
		h.l1.fillAt(b1, w1, now+lat, false)
		record(LevelL2, lat)
		return AccessResult{Level: LevelL2, Latency: lat, InFlightHit: readyAt > now}
	}
	if h.hwPrefetch {
		h.pfBuf = h.l2pf.OnDemandMiss(a, h.pfBuf[:0])
		for _, pa := range h.pfBuf {
			h.Stats.HWPrefetches++
			h.pfAccess(now, pa, LevelL2)
		}
	}
	b3, w3 := h.l3.setBase(a)
	if _, readyAt, hit := h.l3.lookupAt(b3, w3, true, now); hit {
		lat := residual(now, readyAt, h.l3.cfg.LatencyCyc)
		h.l2.fillAt(b2, w2, now+lat, false)
		h.l1.fillAt(b1, w1, now+lat, false)
		record(LevelL3, lat)
		return AccessResult{Level: LevelL3, Latency: lat, InFlightHit: readyAt > now}
	}
	lat := h.l3.cfg.LatencyCyc + h.mem.memLatency(a)
	h.mem.recordFill(a, false)
	h.l3.fillAt(b3, w3, now+lat, false)
	h.l2.fillAt(b2, w2, now+lat, false)
	h.l1.fillAt(b1, w1, now+lat, false)
	record(LevelDRAM, lat)
	return AccessResult{Level: LevelDRAM, Latency: lat}
}

func (h *refHierarchy) pfAccess(now int64, a Addr, target Level) (Level, int64) {
	b1, w1 := h.l1.setBase(a)
	if _, _, hit := h.l1.lookupAt(b1, w1, false, now); hit {
		return LevelL1, 0
	}
	b2, w2 := h.l2.setBase(a)
	if i2, readyAt, hit := h.l2.lookupAt(b2, w2, false, now); hit {
		if target >= LevelL2 {
			return LevelL2, 0
		}
		lat := residual(now, readyAt, h.l2.cfg.LatencyCyc)
		fill := now + lat
		h.l3.fill(a, fill, true)
		h.l2.refreshAt(i2, fill)
		h.l1.fillAt(b1, w1, fill, true)
		return LevelL2, lat
	}
	b3, w3 := h.l3.setBase(a)
	if i3, readyAt, hit := h.l3.lookupAt(b3, w3, false, now); hit {
		if target >= LevelL3 {
			return LevelL3, 0
		}
		lat := residual(now, readyAt, h.l3.cfg.LatencyCyc)
		fill := now + lat
		h.l3.refreshAt(i3, fill)
		if target <= LevelL2 {
			h.l2.fillAt(b2, w2, fill, true)
		}
		if target == LevelL1 {
			h.l1.fillAt(b1, w1, fill, true)
		}
		return LevelL3, lat
	}
	h.mem.recordFill(a, true)
	lat := h.l3.cfg.LatencyCyc + h.mem.memLatency(a)
	fill := now + lat
	h.l3.fillAt(b3, w3, fill, true)
	if target <= LevelL2 {
		h.l2.fillAt(b2, w2, fill, true)
	}
	if target == LevelL1 {
		h.l1.fillAt(b1, w1, fill, true)
	}
	return LevelDRAM, lat
}

// oraclePair is a Hierarchy and its reference, fed the same stream.
type oraclePair struct {
	t   *testing.T
	h   *Hierarchy
	ref *refHierarchy
	now int64
	n   int // accesses so far, for failure messages
}

func newOraclePair(t *testing.T, p MemParams) *oraclePair {
	h := NewHierarchy(p, NewShared(p))
	h.HWPrefetchEnabled = true
	return &oraclePair{t: t, h: h, ref: newRefHierarchy(p)}
}

// access issues one access to both and compares every level's state.
func (o *oraclePair) access(a Addr, kind AccessKind) AccessResult {
	o.t.Helper()
	o.now += 3
	o.n++
	got := o.h.Access(o.now, a, kind)
	want := o.ref.access(o.now, a, kind)
	if got != want {
		o.t.Fatalf("access %d (%#x, kind %d): result %+v, reference %+v", o.n, a, kind, got, want)
	}
	if o.h.Stats != o.ref.Stats {
		o.t.Fatalf("access %d: hierarchy stats %+v, reference %+v", o.n, o.h.Stats, o.ref.Stats)
	}
	if o.h.shared.DRAM.Stats != o.ref.mem.DRAM.Stats {
		o.t.Fatalf("access %d: DRAM stats %+v, reference %+v", o.n, o.h.shared.DRAM.Stats, o.ref.mem.DRAM.Stats)
	}
	o.compare(o.h.L1, o.ref.l1)
	o.compare(o.h.L2, o.ref.l2)
	o.compare(o.h.shared.L3, o.ref.l3)
	return got
}

func (o *oraclePair) reset() {
	o.h.Reset()
	o.h.shared.Reset()
	o.ref.reset()
}

// compare requires c to hold exactly the reference's valid lines, way by
// way, with the same tags, ready times, stamps and prefetch flags, plus
// the same clock and counters.
func (o *oraclePair) compare(c *Cache, ref *refCache) {
	o.t.Helper()
	if c.Stats != ref.Stats || c.clock != ref.clock {
		o.t.Fatalf("access %d: %s stats %+v clock %d, reference %+v clock %d",
			o.n, c.cfg.Name, c.Stats, c.clock, ref.Stats, ref.clock)
	}
	for set := range c.valid {
		n := int(c.valid[set])
		refLive := ref.setEpoch[set] == ref.epoch
		for w := 0; w < c.ways; w++ {
			i := set*c.ways + w
			refValid := refLive && ref.tags[i] != 0
			if (w < n) != refValid {
				o.t.Fatalf("access %d: %s set %d way %d: valid %v, reference %v", o.n, c.cfg.Name, set, w, w < n, refValid)
			}
			if w < n && (c.tags[i] != ref.tags[i] || c.ready[i] != ref.ready[i] || c.used[i] != ref.used[i] || c.pref[i] != ref.pref[i]) {
				o.t.Fatalf("access %d: %s set %d way %d: tag %#x ready %d used %d pref %v, reference %#x %d %d %v",
					o.n, c.cfg.Name, set, w, c.tags[i], c.ready[i], c.used[i], c.pref[i],
					ref.tags[i], ref.ready[i], ref.used[i], ref.pref[i])
			}
		}
	}
}

// oracleParams is a hierarchy small enough to compare in full after every
// access, with few sets so streams collide in them: L1 2 sets × 2 ways,
// L2 4 × 4, L3 4 × 11 (an odd associativity, like the real LLC).
func oracleParams() MemParams {
	return MemParams{
		L1:   CacheConfig{Name: "L1D", SizeBytes: 2 * 2 * LineSize, Ways: 2, LatencyCyc: 5},
		L2:   CacheConfig{Name: "L2", SizeBytes: 4 * 4 * LineSize, Ways: 4, LatencyCyc: 14},
		L3:   CacheConfig{Name: "L3", SizeBytes: 4 * 11 * LineSize, Ways: 11, LatencyCyc: 50},
		DRAM: DRAMConfig{BaseLatencyCyc: 220, PeakBandwidthBytesPerCyc: 58, QueueSensitivity: 1},
	}
}

// TestHierarchyMatchesFullRescanReference drives the Hierarchy and the
// full-rescan reference with the same random stream of loads, stores and
// L1/L2/L3 software prefetches, hardware prefetch on, with occasional
// Resets, and compares every level after every access.
func TestHierarchyMatchesFullRescanReference(t *testing.T) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = true
	kinds := []AccessKind{KindLoad, KindLoad, KindLoad, KindStore, KindPrefetchL1, KindPrefetchL2, KindPrefetchL3}
	for seed := int64(1); seed <= 4; seed++ {
		o := newOraclePair(t, oracleParams())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20000; i++ {
			if rng.Intn(1500) == 0 {
				o.reset()
			}
			// 96 lines over 4 KiB pages of a few regions: dense enough to
			// hit, wide enough to evict at every level.
			a := Addr(rng.Intn(96))*LineSize + Addr(rng.Intn(3))<<20
			o.access(a, kinds[rng.Intn(len(kinds))])
		}
	}
}

// TestFillAfterStaleProbe forces the case the carried probe's clock
// exists for: between a demand access's L1 lookup and its L1 fill, the
// next-line prefetch walk it issues hits another line of the same, full
// L1 set, so the LRU victim changes under the probe.
func TestFillAfterStaleProbe(t *testing.T) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = true
	p := oracleParams()
	p.L1 = CacheConfig{Name: "L1D", SizeBytes: 2 * LineSize, Ways: 2, LatencyCyc: 5} // one set
	o := newOraclePair(t, p)
	const x = Addr(0x40000)
	next, other := x+LineSize, x+8*LineSize
	o.access(next, KindLoad)
	o.access(other, KindLoad) // L1 full; next is its LRU line
	before := o.h.L1.used[lineIndex(t, o.h.L1, next)]
	// x misses L1; the next-line prefetch of next probes L1 and hits it,
	// moving the clock and making other the LRU line, before x is filled.
	if r := o.access(x, KindLoad); r.Level == LevelL1 {
		t.Fatalf("x hit L1; the forced case needs a miss")
	}
	if after := o.h.L1.used[lineIndex(t, o.h.L1, next)]; after <= before {
		t.Fatalf("the prefetch walk did not hit %#x in L1 (stamp %d → %d)", next, before, after)
	}
	lineIndex(t, o.h.L1, x)
	if o.h.L1.Contains(other) {
		t.Fatalf("L1 kept %#x; the fill evicted the victim the probe saw, not the current LRU line", other)
	}
}

// TestFullSetEvictionAfterReset fills one L3 set, Resets, and refills it
// past its associativity: the set's leftover tags must neither hit nor
// count as valid, and the first eviction must pick the right victim.
func TestFullSetEvictionAfterReset(t *testing.T) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = true
	p := oracleParams()
	o := newOraclePair(t, p)
	o.h.HWPrefetchEnabled, o.ref.hwPrefetch = false, false
	l3 := o.h.shared.L3
	stride := Addr(l3.NumSets()) * LineSize // same set every step
	for i := 0; i < l3.ways; i++ {
		o.access(Addr(i)*stride, KindLoad)
	}
	o.reset()
	// The leftover lines first, in a different order, then one more.
	for i := l3.ways; i >= 0; i-- {
		if r := o.access(Addr(i)*stride, KindLoad); r.Level != LevelDRAM {
			t.Fatalf("line %d after Reset served from %v, want DRAM", i, r.Level)
		}
	}
	if l3.Stats.Evictions != 1 {
		t.Fatalf("L3 evictions %d after refilling one set past %d ways, want 1", l3.Stats.Evictions, l3.ways)
	}
	if l3.Contains(Addr(l3.ways) * stride) {
		t.Fatalf("the least recently used line survived the eviction")
	}
}

// lineIndex returns the line-array index holding a in c, failing the test
// when a is not resident.
func lineIndex(t *testing.T, c *Cache, a Addr) int {
	t.Helper()
	p := c.setBase(LineAddr(a))
	for i := p.base; i < p.base+int(c.valid[p.set]); i++ {
		if c.tags[i] == p.want {
			return i
		}
	}
	t.Fatalf("%s: line %#x not resident", c.cfg.Name, a)
	return -1
}
