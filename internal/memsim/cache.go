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
// the tag scan — the operation every probe performs — walks 4 bytes per
// way, so a whole 16-way set's tags fit in one host cache line. A line
// costs 16 bytes plus 1 bit: a 32-bit tag, a 64-bit ready time, a 32-bit
// recency stamp and a prefetch flag in a bitset. Recency is tracked with a
// per-cache counter rather than physical ordering, so hits don't shuffle
// memory; the counter is rebased before it wraps (see rebase).
//
// Only Reset (which Reshape calls) invalidates lines, and a fill always
// takes the first free way, so a set's valid lines are always the prefix
// [0, n) of its ways, with n kept per set in valid. Probes scan only that
// prefix, a fill into a set that is not full takes way n without a scan,
// and a full set picks its victim from the recency stamps alone. Ways at
// n and above hold leftovers from before the last Reset, possibly of
// another geometry, that nothing reads.
//
// Reset zeroes the one-byte counts and leaves the line arrays alone, so
// it clears about 1/(16·ways) of the cache's state: tens of kilobytes for
// a multi-megabyte LLC. Reshape relies on the same invariant to give a
// Cache another geometry without clearing its arrays. Together they make
// reusing a Cache across simulation runs (see core's System free list)
// cheap.
type Cache struct {
	cfg CacheConfig

	// Per-line state, sets × ways, flattened. tags holds (tag<<1)|1 for a
	// valid line, so a probe's encoded tag is never 0; setBase panics on
	// an address whose encoded tag would not fit in 32 bits.
	tags  []uint32
	ready []int64  // cycle at which the line's fill completes
	used  []uint32 // recency stamp; larger = more recent within a set
	pref  []uint64 // bit i: line i was filled by a prefetch and not yet demand-touched

	// valid[s] is set s's count of valid ways, its prefix [0, n).
	valid []uint8

	ways     int
	setMask  uint64
	tagShift uint // line-offset bits + set-index bits, in one shift
	// clock advances on every hit and every fill; it stamps used. It
	// never exceeds clockLimit (see tick).
	clock uint32

	// Stats accumulates hit/miss counters for this level.
	Stats CacheStats
}

// probe is one logical access's view of one cache's set for one line,
// computed once by setBase and carried from the lookup on the way down to
// the fill on the way back. clock is the cache's clock when the probe was
// taken. Every hit and every fill moves the clock, forward or, at a
// rebase, back to a value no probe of the same access read, and a missing
// lookup does not move it, so a fill that still reads the same clock
// knows the probe's lookup missed and nothing has touched the cache since:
// the line is still absent. A fill must therefore follow a lookup with
// the same probe; Fill, which makes none, sets clock to noLookup, which no
// cache clock reads.
type probe struct {
	set   int
	base  int    // index of the set's way 0 in the line arrays
	want  uint32 // encoded tag, (tag<<1)|1
	clock uint32
}

const (
	// clockLimit is the largest value a cache's clock takes. The tick
	// that would pass it rebases the stamps first (see rebase).
	clockLimit = math.MaxUint32 - 1
	// noLookup is the clock of a probe no lookup was made with.
	noLookup = math.MaxUint32
)

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
	c := &Cache{}
	c.Reshape(cfg)
	return c
}

// Reshape gives c cfg's geometry and empties it, in place: afterwards c
// serves every access as NewCache(cfg) would. The line arrays only grow.
// They are re-sliced when their capacity holds cfg's lines, so a reshape
// to a geometry that fits allocates nothing, and reallocated only when it
// does not. Their old contents stay behind, and that is exact: a set's
// valid lines are the prefix counted by valid, which Reshape zeroes, and
// nothing reads a way past that prefix (see Cache). It panics on the
// configs NewCache rejects.
func (c *Cache) Reshape(cfg CacheConfig) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.Ways > math.MaxUint8 {
		panic(fmt.Sprintf("memsim: invalid cache config %+v", cfg))
	}
	numSets := int(cfg.Sets())
	lines := numSets * cfg.Ways
	c.cfg = cfg
	c.tags = resize(c.tags, lines)
	c.ready = resize(c.ready, lines)
	c.used = resize(c.used, lines)
	c.pref = resize(c.pref, (lines+63)/64)
	c.valid = resize(c.valid, numSets)
	c.ways = cfg.Ways
	c.setMask = uint64(numSets - 1)
	c.tagShift = lineShift + uint(bits.Len64(uint64(numSets-1)))
	c.Reset()
}

// resize returns s with length n, re-sliced when its capacity holds n
// and freshly allocated, at exactly n, when it does not.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// NumSets returns the number of sets after power-of-two rounding.
func (c *Cache) NumSets() int { return len(c.valid) }

// CapacityLines returns the number of lines the cache can hold.
func (c *Cache) CapacityLines() int64 { return int64(len(c.tags)) }

// setBase returns the probe for a's line, with no lookup made yet. It
// panics when a's tag does not fit the 31 bits an encoded tag leaves it,
// that is at addresses of 2^(31+tagShift) and above: 8 TiB for a 64-set
// cache.
func (c *Cache) setBase(a Addr) probe {
	la := uint64(a)
	tag := la >> c.tagShift
	if tag >= 1<<31 {
		panic(tagOverflow{c.cfg.Name, a, c.tagShift})
	}
	set := int((la >> lineShift) & c.setMask)
	return probe{set: set, base: set * c.ways, want: uint32(tag)<<1 | 1, clock: c.clock}
}

// tagOverflow is setBase's panic value for an address past its bound. It
// formats only when printed, which keeps setBase inlinable.
type tagOverflow struct {
	cache    string
	addr     Addr
	tagShift uint
}

func (e tagOverflow) Error() string {
	return fmt.Sprintf("memsim: %s: address %#x is at or above 2^%d, past what its 32-bit tags encode",
		e.cache, uint64(e.addr), 31+e.tagShift)
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
	c.used[i] = c.tick()
	if demand {
		c.Stats.DemandHits++
		if w, bit := i>>6, uint64(1)<<(uint(i)&63); c.pref[w]&bit != 0 {
			c.Stats.PrefetchHits++
			c.pref[w] &^= bit
		}
		if c.ready[i] > now {
			c.Stats.InFlightHits++
		}
	}
	return i, c.ready[i], true
}

// find returns the line index of want among the n valid ways of the set
// at base, or -1.
func (c *Cache) find(base, n int, want uint32) int {
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
	p.clock = noLookup // the line may be resident
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
	stamp := c.tick()
	w, bit := slot>>6, uint64(1)<<(uint(slot)&63)
	if n < c.ways {
		c.valid[p.set]++
	} else {
		c.Stats.Evictions++
		if c.pref[w]&bit != 0 {
			c.Stats.UselessPrefILL++
		}
	}
	c.tags[slot] = p.want
	c.ready[slot] = readyAt
	c.used[slot] = stamp
	if prefetch {
		c.pref[w] |= bit
		c.Stats.PrefetchFills++
	} else {
		c.pref[w] &^= bit
	}
}

// tick advances the clock and returns it, the stamp of the hit or fill
// that called it. At clockLimit it rebases the stamps first.
func (c *Cache) tick() uint32 {
	if c.clock >= clockLimit {
		c.rebase()
	}
	c.clock++
	return c.clock
}

// rebase replaces each valid line's stamp with its rank, 1 to n, among the
// n valid lines of its set, and restarts the clock at ways, at or above
// every rank. It is exact: stamps are distinct between Resets, so the
// ranks keep every set's order, and the stamps given out afterwards exceed
// every rank, as they exceeded every stamp before. LRU compares stamps
// only within a set, so every victim is the one the old stamps name. A
// probe taken before the rebase carries a clock near clockLimit, which the
// restarted clock does not reach again within one access, so fillAt
// rescans for it (see probe). Ways past a set's valid prefix keep stale
// stamps, which nothing reads. It stays out of line so that tick, on
// every hit and fill, is inlined.
//
//go:noinline
func (c *Cache) rebase() {
	var rank [math.MaxUint8]uint32
	for s, n := range c.valid {
		used := c.used[s*c.ways : s*c.ways+int(n)]
		for i, u := range used {
			r := uint32(1)
			for _, v := range used {
				if v < u {
					r++
				}
			}
			rank[i] = r
		}
		copy(used, rank[:n])
	}
	c.clock = uint32(c.ways)
}

// lruWay returns the index of the least recently used way of the full set
// at base. Stamps are distinct between Resets, so the smallest is unique;
// packing each way's number (< 256) under its 32-bit stamp lets one
// branch-free min find both.
func (c *Cache) lruWay(base int) int {
	m := uint64(math.MaxUint64)
	for i, u := range c.used[base : base+c.ways] {
		m = min(m, uint64(u)<<8|uint64(i))
	}
	return base + int(m&0xff)
}

// findOrLRU is find and lruWay in one pass over the full set at base: the
// index of want, or -1 and the LRU way.
func (c *Cache) findOrLRU(base int, want uint32) (idx, lru int) {
	used := c.used[base : base+c.ways]
	m := uint64(math.MaxUint64)
	for i, tag := range c.tags[base : base+len(used)] {
		if tag == want {
			return base + i, -1
		}
		m = min(m, uint64(used[i])<<8|uint64(i))
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
		victimUsed := uint32(math.MaxUint32)
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
	if readyAt < c.ready[idx] {
		c.ready[idx] = readyAt
	}
	c.used[idx] = c.tick()
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
