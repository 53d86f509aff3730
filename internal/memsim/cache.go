package memsim

import (
	"fmt"
	"math/bits"

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
// Reset is O(1): it bumps an epoch, and each set lazily re-validates
// against the epoch on first touch. This is what makes reusing a Cache
// across simulation runs (see core's engine pool) cheap even for a
// multi-megabyte LLC.
type Cache struct {
	cfg CacheConfig

	// Per-line state, sets × ways, flattened. tags holds (tag<<1)|1 for a
	// valid line and 0 for an invalid one, so one compare tests tag and
	// validity together.
	tags  []uint64
	ready []int64 // cycle at which the line's fill completes
	used  []int64 // recency stamp; larger = more recent
	pref  []bool  // filled by a prefetch and not yet demand-touched

	// setEpoch[s] != epoch marks set s as untouched since the last Reset;
	// its tags are cleared on first access.
	setEpoch []uint64
	epoch    uint64

	ways     int
	setMask  uint64
	tagShift uint // line-offset bits + set-index bits, in one shift
	clock    int64

	// Stats accumulates hit/miss counters for this level.
	Stats CacheStats
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
// nonsensical configs, which indicate programmer error.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
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
		setEpoch: make([]uint64, numSets),
		ways:     cfg.Ways,
		setMask:  uint64(numSets - 1),
		tagShift: lineShift + uint(bits.Len64(uint64(numSets-1))),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// NumSets returns the number of sets after power-of-two rounding.
func (c *Cache) NumSets() int { return len(c.setEpoch) }

// CapacityLines returns the number of lines the cache can hold.
func (c *Cache) CapacityLines() int64 { return int64(len(c.tags)) }

// setBase locates a's set, lazily emptying it if it is stale from a prior
// epoch, and returns the set's base line index plus the encoded tag to
// match ((tag<<1)|1 — never 0, so invalid lines can never match).
func (c *Cache) setBase(a Addr) (int, uint64) {
	la := uint64(a)
	set := int((la >> lineShift) & c.setMask)
	base := set * c.ways
	if c.setEpoch[set] != c.epoch {
		c.setEpoch[set] = c.epoch
		clear(c.tags[base : base+c.ways])
	}
	return base, (la>>c.tagShift)<<1 | 1
}

// Lookup probes for the line containing a. On a hit it updates recency and
// counters and returns (readyAt, true); on a miss it returns (0, false).
// demand distinguishes demand loads/stores (counted, clears prefetch flag)
// from prefetch probes (not counted as demand traffic).
func (c *Cache) Lookup(a Addr, demand bool, now int64) (readyAt int64, hit bool) {
	base, want := c.setBase(a)
	_, readyAt, hit = c.lookupAt(base, want, demand, now)
	return readyAt, hit
}

// lookupAt is Lookup with the set probe (base, want) already computed —
// Hierarchy.Access probes each level once and reuses the probe for the
// fill on the way back. On a hit it also returns the line's index, which
// refreshAt accepts. The probe must come from setBase in the same
// logical access (no Reset in between).
func (c *Cache) lookupAt(base int, want uint64, demand bool, now int64) (idx int, readyAt int64, hit bool) {
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

// Fill installs the line containing a, with its data becoming available at
// readyAt. The LRU line of the set is evicted if the set is full. prefetch
// marks the fill as speculative for useless-prefetch accounting.
func (c *Cache) Fill(a Addr, readyAt int64, prefetch bool) {
	base, want := c.setBase(a)
	c.fillAt(base, want, readyAt, prefetch)
}

// fillAt is Fill with the probe precomputed (see lookupAt). One pass
// over the set finds the resident line, the first invalid way, and the
// LRU victim together — the fill path runs on every miss, and the old
// match-scan-then-victim-scan walked the set twice.
func (c *Cache) fillAt(base int, want uint64, readyAt int64, prefetch bool) {
	c.clock++
	victim := base
	invalid := -1
	var victimUsed int64 = 1<<63 - 1
	for i := base; i < base+c.ways; i++ {
		switch {
		case c.tags[i] == want:
			// Already present (e.g. two prefetches to one line). The tag
			// is resident at most once (asserted below), so no later way
			// can also match.
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
	if check.Enabled {
		// Set occupancy can never exceed the associativity, and a tag must
		// be resident at most once — a duplicate would make hit accounting
		// and LRU recency nonsense.
		dup := 0
		for i := base; i < base+c.ways; i++ {
			if c.tags[i] == want {
				dup++
			}
		}
		check.Assert(dup == 1, "memsim: %s: tag %#x resident %d times in one set", c.cfg.Name, want, dup)
	}
}

// refreshAt re-installs a line already known resident at idx — exactly
// fillAt's match branch, minus the set scan the caller just performed via
// lookupAt in the same logical access (no Reset or eviction in between).
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
	base, want := c.setBase(a)
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == want {
			return true
		}
	}
	return false
}

// Reset empties the cache and zeroes its counters. It is O(sets in name
// only): the epoch bump invalidates every set, and sets re-validate lazily
// on first touch, so a Reset costs O(1) regardless of cache size.
func (c *Cache) Reset() {
	c.epoch++
	c.clock = 0
	c.Stats = CacheStats{}
}
