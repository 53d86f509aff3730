package memsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dlrmsim/internal/check"
)

// CacheConfig describes one cache level's geometry and hit latency.
type CacheConfig struct {
	Name       string
	SizeBytes  int64
	Ways       int
	LatencyCyc int64 // access (hit) latency in cycles
}

// Cache is a set-associative cache with true-LRU replacement. The zero
// value is not usable; construct with NewCache.
//
// Line state is stored as parallel arrays rather than an array of structs:
// the tag scan — the operation every probe performs — walks 8 bytes per
// way instead of 32, so a whole 8-way set's tags fit in one host cache
// line. Recency is tracked with a per-cache monotonic counter rather than
// physical ordering, so hits don't shuffle memory.
//
// Only Reset invalidates lines, and a fill always takes the first free
// way, so a set's valid lines are always the prefix [0, n) of its ways,
// with n kept per set in valid. Probes scan only that prefix, a fill into
// a set that is not full takes way n without a scan, and a full set picks
// its victim from the recency stamps alone. Ways at n and above hold
// leftovers from before the last Reset that nothing reads.
//
// Reset zeroes the one-byte counts and leaves the line arrays alone, so
// it clears 1/(25·ways) of the cache's state: tens of kilobytes for a
// multi-megabyte LLC. This is what makes reusing a Cache across
// simulation runs (see core's engine pool) cheap.
type Cache struct {
	cfg CacheConfig

	// Per-line state, sets × ways, flattened. tags holds (tag<<1)|1 for a
	// valid line, so a probe's encoded tag is never 0.
	tags  []uint64
	ready []int64 // cycle at which the line's fill completes
	used  []int64 // recency stamp; larger = more recent
	pref  []bool  // filled by a prefetch and not yet demand-touched

	// valid[s] is set s's count of valid ways, its prefix [0, n).
	valid []uint8

	ways     int
	setMask  uint64
	tagShift uint // line-offset bits + set-index bits, in one shift
	// clock advances on every hit and every fill; it stamps used.
	clock int64

	// Stats accumulates hit/miss counters for this level.
	Stats CacheStats
}

// probe is one logical access's view of one cache's set for one line,
// computed once by setBase and carried from the lookup on the way down to
// the fill on the way back. clock is the cache's clock when the probe was
// taken. Every hit and every fill advances the clock and a missing lookup
// does not, so a fill that still reads the same clock knows the probe's
// lookup missed and nothing has touched the cache since: the line is
// still absent. A fill must therefore follow a lookup with the same
// probe; Fill, which makes none, sets clock to -1.
type probe struct {
	set   int
	base  int    // index of the set's way 0 in the line arrays
	want  uint64 // encoded tag, (tag<<1)|1
	clock int64
}

// CacheStats counts the traffic observed by one cache level.
type CacheStats struct {
	DemandHits     uint64 // demand accesses that hit
	DemandMisses   uint64 // demand accesses that missed
	PrefetchFills  uint64 // lines installed by prefetch requests
	PrefetchHits   uint64 // demand hits on lines a prefetch installed
	InFlightHits   uint64 // demand hits that waited on an in-flight fill
	Evictions      uint64 // valid lines displaced
	UselessPrefILL uint64 // prefetched lines evicted before any demand touch
}

// HitRate returns demand hits / demand accesses (0 when idle).
func (s CacheStats) HitRate() float64 {
	total := s.DemandHits + s.DemandMisses
	if total == 0 {
		return 0
	}
	return float64(s.DemandHits) / float64(total)
}

// NewCache builds a cache from cfg. Sets = size / (line * ways), rounded
// down to a power of two so set indexing is a mask (real L3 slices aren't
// power-of-two sized; the rounding costs <2% capacity). It panics on
// nonsensical configs, which indicate programmer error, and on more than
// 255 ways, which a set's valid count cannot hold.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.Ways > math.MaxUint8 {
		panic(fmt.Sprintf("memsim: invalid cache config %+v", cfg))
	}
	numSets := cfg.SizeBytes / (LineSize * int64(cfg.Ways))
	if numSets < 1 {
		numSets = 1
	}
	numSets = 1 << (bits.Len64(uint64(numSets)) - 1)
	lines := int(numSets) * cfg.Ways
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, lines),
		ready:    make([]int64, lines),
		used:     make([]int64, lines),
		pref:     make([]bool, lines),
		valid:    make([]uint8, numSets),
		ways:     cfg.Ways,
		setMask:  uint64(numSets - 1),
		tagShift: lineShift + uint(bits.Len64(uint64(numSets-1))),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// NumSets returns the number of sets after power-of-two rounding.
func (c *Cache) NumSets() int { return len(c.valid) }

// CapacityLines returns the number of lines the cache can hold.
func (c *Cache) CapacityLines() int64 { return int64(len(c.tags)) }

// setBase returns the probe for a's line, with no lookup made yet.
func (c *Cache) setBase(a Addr) probe {
	la := uint64(a)
	set := int((la >> lineShift) & c.setMask)
	return probe{set: set, base: set * c.ways, want: (la>>c.tagShift)<<1 | 1, clock: c.clock}
}

// Lookup probes for the line containing a. On a hit it updates recency and
// counters and returns (readyAt, true); on a miss it returns (0, false).
// demand distinguishes demand loads/stores (counted, clears prefetch flag)
// from prefetch probes (not counted as demand traffic).
func (c *Cache) Lookup(a Addr, demand bool, now int64) (readyAt int64, hit bool) {
	p := c.setBase(a)
	_, readyAt, hit = c.lookupAt(p, demand, now)
	return readyAt, hit
}

// lookupAt is Lookup with the probe already computed — Hierarchy.Access
// probes each level once and carries the probe to the fill on the way
// back. It scans the set's valid prefix. On a hit it also returns the
// line's index, which refreshAt accepts. The probe must come from setBase
// in the same logical access (no Reset in between).
func (c *Cache) lookupAt(p probe, demand bool, now int64) (idx int, readyAt int64, hit bool) {
	i := c.find(p.base, int(c.valid[p.set]), p.want)
	if i < 0 {
		if demand {
			c.Stats.DemandMisses++
		}
		return -1, 0, false
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

// find returns the line index of want among the n valid ways of the set
// at base, or -1.
func (c *Cache) find(base, n int, want uint64) int {
	for j, tag := range c.tags[base : base+n] {
		if tag == want {
			return base + j
		}
	}
	return -1
}

// Fill installs the line containing a, with its data becoming available at
// readyAt. The LRU line of the set is evicted if the set is full. prefetch
// marks the fill as speculative for useless-prefetch accounting.
func (c *Cache) Fill(a Addr, readyAt int64, prefetch bool) {
	p := c.setBase(a)
	p.clock = -1 // no lookup: the line may be resident
	c.fillAt(p, readyAt, prefetch)
}

// fillAt is Fill with the probe precomputed (see lookupAt). An absent
// line takes the first free way, or in a full set the LRU way, read from
// the current recency stamps. When the cache's clock still reads the
// probe's, the line is known absent and the set unchanged (see probe), so
// that is all fillAt does: no scan in a set with a free way, a scan of the
// stamps alone in a full one. Otherwise (a hit or fill since the probe,
// e.g. by a prefetch walk this access issued on its way down, or no
// lookup at all) the line may have arrived meanwhile; fillAt scans the
// valid ways for it, together with the stamps when the set is full, and
// refreshes it in place if found.
func (c *Cache) fillAt(p probe, readyAt int64, prefetch bool) {
	n := int(c.valid[p.set])
	slot := p.base + n
	switch {
	case c.clock == p.clock:
		if n == c.ways {
			slot = c.lruWay(p.base)
		}
	case n < c.ways:
		if i := c.find(p.base, n, p.want); i >= 0 {
			c.refreshAt(i, readyAt)
			return
		}
	default:
		i, lru := c.findOrLRU(p.base, p.want)
		if i >= 0 {
			c.refreshAt(i, readyAt)
			return
		}
		slot = lru
	}
	if check.Enabled {
		c.checkSlot(p, slot)
	}
	c.clock++
	if n < c.ways {
		c.valid[p.set]++
	} else {
		c.Stats.Evictions++
		if c.pref[slot] {
			c.Stats.UselessPrefILL++
		}
	}
	c.tags[slot] = p.want
	c.ready[slot] = readyAt
	c.used[slot] = c.clock
	c.pref[slot] = prefetch
	if prefetch {
		c.Stats.PrefetchFills++
	}
}

// lruWay returns the index of the least recently used way of the full set
// at base. Stamps are distinct between Resets, so the smallest is unique;
// packing each way's number (< 256) under its stamp lets one branch-free
// min find both, and a stamp, bounded by the hits and fills since the
// last Reset, stays far below 2^55.
func (c *Cache) lruWay(base int) int {
	m := int64(math.MaxInt64)
	for i, u := range c.used[base : base+c.ways] {
		m = min(m, u<<8|int64(i))
	}
	return base + int(m&0xff)
}

// findOrLRU is find and lruWay in one pass over the full set at base: the
// index of want, or -1 and the LRU way.
func (c *Cache) findOrLRU(base int, want uint64) (idx, lru int) {
	used := c.used[base : base+c.ways]
	m := int64(math.MaxInt64)
	for i, tag := range c.tags[base : base+len(used)] {
		if tag == want {
			return base + i, -1
		}
		m = min(m, used[i]<<8|int64(i))
	}
	return -1, base + int(m&0xff)
}

// checkSlot asserts fillAt's choice against a full rescan of p's set: the
// valid ways are a prefix of encoded, distinct tags, none of them p's (the
// tag scan fillAt may have skipped would have found nothing), and slot is
// the first invalid way or, in a full set, the way with the smallest
// stamp.
func (c *Cache) checkSlot(p probe, slot int) {
	n := int(c.valid[p.set])
	check.Assert(n <= c.ways, "memsim: %s: set %d holds %d lines in %d ways", c.cfg.Name, p.set, n, c.ways)
	prefix := c.tags[p.base : p.base+n]
	for i, tag := range prefix {
		if tag&1 == 0 || tag == p.want || slices.Contains(prefix[i+1:], tag) {
			check.Assert(false, "memsim: %s: way %d of set %d holds tag %#x while filling %#x (invalid, duplicate or already resident)",
				c.cfg.Name, i, p.set, tag, p.want)
		}
	}
	want := p.base + n
	if n == c.ways {
		victimUsed := int64(math.MaxInt64)
		for i := p.base; i < p.base+c.ways; i++ {
			if c.used[i] < victimUsed {
				want, victimUsed = i, c.used[i]
			}
		}
	}
	check.Assert(slot == want, "memsim: %s: fill chose way %d of set %d, a full rescan picks %d", c.cfg.Name, slot-p.base, p.set, want-p.base)
}

// refreshAt re-installs a line already known resident at idx: it takes the
// earlier of the two ready times and makes the line most recent.
func (c *Cache) refreshAt(idx int, readyAt int64) {
	c.clock++
	if readyAt < c.ready[idx] {
		c.ready[idx] = readyAt
	}
	c.used[idx] = c.clock
}

// Contains reports whether the line holding a is resident, without touching
// recency or counters. Intended for tests and assertions.
func (c *Cache) Contains(a Addr) bool {
	p := c.setBase(a)
	return c.find(p.base, int(c.valid[p.set]), p.want) >= 0
}

// Reset empties the cache and zeroes its counters. It zeroes one byte per
// set (see Cache).
func (c *Cache) Reset() {
	clear(c.valid)
	c.clock = 0
	c.Stats = CacheStats{}
}
