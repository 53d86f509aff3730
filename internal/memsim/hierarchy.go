package memsim

import "fmt"

// MemParams collects the geometry and latencies for one core's view of the
// memory system. Packages above (platform) construct these from CPU specs.
type MemParams struct {
	L1   CacheConfig
	L2   CacheConfig
	L3   CacheConfig // shared; size is the whole LLC
	DRAM DRAMConfig
}

// The hardware prefetchers' degrees: lines the L1 next-line engine and
// the L2 stride engine fetch per trigger.
const (
	l1PrefetchDegree = 1
	l2PrefetchDegree = 2
)

// Shared is the portion of the memory system common to all cores on a
// socket: the last-level cache and the DRAM behind it. On a 2-socket node
// memory is page-interleaved: a line lives on socket (address / 4 KiB)
// mod 2, and a fill of a line homed on the other socket is served by that
// socket's DRAM plus RemotePenaltyCyc of interconnect latency
// (UPI/Infinity-Fabric-style).
type Shared struct {
	L3   *Cache
	DRAM *DRAM

	// socket is this socket's index on the node; remote, non-nil only on
	// a 2-socket node, is the other socket's DRAM.
	socket int
	remote *DRAM
}

// MaxSockets is the largest modeled node: the paper's 2-socket testbed.
const MaxSockets = 2

// RemotePenaltyCyc is the extra latency of a fill served by the other
// socket (~60 ns of UPI hop at the 2.4 GHz core clock).
const RemotePenaltyCyc = 150

// pageShift is log2 of the 4 KiB page that interleaves memory across
// sockets.
const pageShift = 12

// NewShared builds one socket's LLC+DRAM from params, with every line
// local, as on a 1-socket node.
func NewShared(p MemParams) *Shared {
	return &Shared{
		L3:   NewCache(p.L3),
		DRAM: NewDRAM(p.DRAM),
	}
}

// NewSockets builds one Shared per socket of an n-socket node, n in
// [1, MaxSockets], and wires each socket to the other's DRAM. It panics on
// any other n.
func NewSockets(p MemParams, n int) []*Shared { return ReshapeSockets(nil, p, n) }

// ReshapeSockets makes the first n sockets of pool the node NewSockets(p,
// n) builds and returns pool, grown to at least n sockets. A socket the
// pool holds is reshaped in place: its LLC keeps its line arrays (see
// Cache.Reshape) and its DRAM is rebuilt. A socket it lacks is built.
// Sockets past n are left as they are, for a later, larger node. It
// panics on an n outside [1, MaxSockets].
func ReshapeSockets(pool []*Shared, p MemParams, n int) []*Shared {
	if n < 1 || n > MaxSockets {
		panic(fmt.Sprintf("memsim: %d sockets outside [1, %d]", n, MaxSockets))
	}
	for i := 0; i < n; i++ {
		if i < len(pool) {
			pool[i].L3.Reshape(p.L3)
			pool[i].DRAM = NewDRAM(p.DRAM)
		} else {
			pool = append(pool, NewShared(p))
		}
		pool[i].socket, pool[i].remote = i, nil
	}
	if n == 2 {
		pool[0].remote, pool[1].remote = pool[1].DRAM, pool[0].DRAM
	}
	return pool
}

// homeLocal reports whether line a is homed on this socket.
func (s *Shared) homeLocal(a Addr) bool { return int(a>>pageShift)%2 == s.socket }

// memLatency returns the fill latency for line a under the current
// utilizations, local or remote.
func (s *Shared) memLatency(a Addr) int64 {
	if s.remote == nil || s.homeLocal(a) {
		return s.DRAM.AccessLatency()
	}
	return s.remote.AccessLatency() + RemotePenaltyCyc
}

// recordFill accounts a fill of line a against the serving DRAM.
func (s *Shared) recordFill(a Addr, prefetch bool) {
	if s.remote == nil || s.homeLocal(a) {
		s.DRAM.RecordFill(prefetch)
		return
	}
	s.remote.RecordFill(prefetch)
}

// Reset clears the shared state and counters (the local socket's only;
// each socket resets its own).
func (s *Shared) Reset() {
	s.L3.Reset()
	s.DRAM.Reset()
}

// Hierarchy is one core's private L1D and L2 in front of the shared LLC
// and DRAM, plus the core's hardware prefetch engines.
type Hierarchy struct {
	L1     *Cache
	L2     *Cache
	shared *Shared

	l1pf *NextLinePrefetcher
	l2pf *StridePrefetcher
	// pfBuf is the scratch the prefetch engines append candidates into,
	// reused across accesses (see hwprefetch.go).
	pfBuf []Addr
	// HWPrefetchEnabled gates the next-line (L1) and stride (L2) hardware
	// prefetchers: on is the paper's "baseline", off (as built) is "w/o
	// HW-PF". It is a run-time switch, not a geometry parameter, so the
	// same hierarchy can be reused across design points.
	HWPrefetchEnabled bool

	// Stats accumulates demand-load latency for the avg-load-latency
	// metric the paper reports from VTune.
	Stats HierStats
}

// HierStats aggregates core-side access metrics.
type HierStats struct {
	Loads          uint64
	Stores         uint64
	SWPrefetches   uint64
	HWPrefetches   uint64
	LoadLatencySum int64
	LevelHits      [numLevels]uint64 // demand accesses satisfied per level
}

// AvgLoadLatency returns the mean demand-load latency in cycles.
func (s HierStats) AvgLoadLatency() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadLatencySum) / float64(s.Loads)
}

// NewHierarchy builds the private levels for one core in front of shared.
func NewHierarchy(p MemParams, shared *Shared) *Hierarchy {
	return &Hierarchy{
		L1:     NewCache(p.L1),
		L2:     NewCache(p.L2),
		shared: shared,
		l1pf:   NewNextLinePrefetcher(l1PrefetchDegree),
		l2pf:   NewStridePrefetcher(l2PrefetchDegree, 32),
	}
}

// Reshape rebuilds h in place as NewHierarchy(p, shared) builds one: L1
// and L2 take p's geometry over their own line arrays (see
// Cache.Reshape), the hardware prefetchers are off and untrained, and the
// counters are zero.
func (h *Hierarchy) Reshape(p MemParams, shared *Shared) {
	h.L1.Reshape(p.L1)
	h.L2.Reshape(p.L2)
	h.shared = shared
	h.HWPrefetchEnabled = false
	h.Reset()
}

// Shared exposes the LLC+DRAM this hierarchy sits in front of.
func (h *Hierarchy) Shared() *Shared { return h.shared }

// Reset clears the private caches, prefetcher state, and counters. The
// shared levels are reset separately (they belong to all cores).
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.l1pf.Reset()
	h.l2pf.Reset()
	h.Stats = HierStats{}
}

// residual converts a line's readyAt into the observed latency for an
// access starting at now with nominal hit latency lat: the requester waits
// for whichever completes later, the cache array access or the in-flight
// fill.
func residual(now, readyAt, lat int64) int64 {
	if wait := readyAt - now; wait > lat {
		return wait
	}
	return lat
}

// Access performs one memory access at simulated cycle `now` and returns
// where it hit and its latency. Demand loads/stores walk L1→L2→L3→DRAM,
// filling inclusively on the way back. Prefetch kinds locate the line and
// install it at the hinted level (and all levels below it) without being
// counted as demand traffic.
func (h *Hierarchy) Access(now int64, a Addr, kind AccessKind) AccessResult {
	a = LineAddr(a)
	if kind.IsPrefetch() {
		return h.prefetch(now, a, kind)
	}
	return h.demandAccess(now, a, kind)
}

// demandAccess walks the hierarchy for one demand access to the
// line-aligned address a. Each level's probe is computed once and carried
// from the lookup on the way down to the fill on the way back; a probe's
// set and tag are a pure function of the address and geometry, and only a
// Reset (impossible mid-access) could empty a set under it. The
// hardware prefetch walks this access issues between a level's lookup and
// its fill may hit or fill that level's set; the probe's recorded clock
// tells fillAt when that happened, and fillAt then rescans the set.
func (h *Hierarchy) demandAccess(now int64, a Addr, kind AccessKind) AccessResult {
	if kind == KindLoad {
		h.Stats.Loads++
	} else {
		h.Stats.Stores++
	}

	// L1 probe.
	p1 := h.L1.setBase(a)
	if _, readyAt, hit := h.L1.lookupAt(p1, true, now); hit {
		lat := residual(now, readyAt, h.L1.cfg.LatencyCyc)
		h.record(kind, LevelL1, lat)
		return AccessResult{Level: LevelL1, Latency: lat, InFlightHit: readyAt > now}
	}
	// L1 miss: train the L1 hardware prefetcher. Like Intel's DCU
	// prefetcher, its fills land in L2 — strong enough to help streaming
	// code, too weak to matter for row-to-row indirection.
	if h.HWPrefetchEnabled {
		h.pfBuf = h.l1pf.OnDemandMiss(a, h.pfBuf[:0])
		for _, pa := range h.pfBuf {
			h.hwPrefetchInto(now, pa, LevelL2)
		}
	}

	// L2 probe.
	p2 := h.L2.setBase(a)
	if _, readyAt, hit := h.L2.lookupAt(p2, true, now); hit {
		lat := residual(now, readyAt, h.L2.cfg.LatencyCyc)
		h.L1.fillAt(p1, now+lat, false)
		h.record(kind, LevelL2, lat)
		return AccessResult{Level: LevelL2, Latency: lat, InFlightHit: readyAt > now}
	}
	if h.HWPrefetchEnabled {
		h.pfBuf = h.l2pf.OnDemandMiss(a, h.pfBuf[:0])
		for _, pa := range h.pfBuf {
			h.hwPrefetchInto(now, pa, LevelL2)
		}
	}

	// L3 probe.
	p3 := h.shared.L3.setBase(a)
	if _, readyAt, hit := h.shared.L3.lookupAt(p3, true, now); hit {
		lat := residual(now, readyAt, h.shared.L3.cfg.LatencyCyc)
		h.L2.fillAt(p2, now+lat, false)
		h.L1.fillAt(p1, now+lat, false)
		h.record(kind, LevelL3, lat)
		return AccessResult{Level: LevelL3, Latency: lat, InFlightHit: readyAt > now}
	}

	// DRAM (local or remote-socket per line homing).
	lat := h.shared.L3.cfg.LatencyCyc + h.shared.memLatency(a)
	h.shared.recordFill(a, false)
	h.shared.L3.fillAt(p3, now+lat, false)
	h.L2.fillAt(p2, now+lat, false)
	h.L1.fillAt(p1, now+lat, false)
	h.record(kind, LevelDRAM, lat)
	return AccessResult{Level: LevelDRAM, Latency: lat}
}

func (h *Hierarchy) record(kind AccessKind, lvl Level, lat int64) {
	h.Stats.LevelHits[lvl]++
	if kind == KindLoad {
		h.Stats.LoadLatencySum += lat
	}
}

// prefetch implements the software prefetch hints. The returned latency is
// the fill time — the core does not stall on it; package cpusim uses it to
// model MSHR occupancy.
func (h *Hierarchy) prefetch(now int64, a Addr, kind AccessKind) AccessResult {
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

// hwPrefetchInto issues a hardware prefetch of line a into the given level.
func (h *Hierarchy) hwPrefetchInto(now int64, a Addr, target Level) {
	h.Stats.HWPrefetches++
	h.pfAccess(now, a, target)
}

// pfAccess walks the hierarchy for one prefetch of line a: it locates the
// nearest level holding the line and, unless that is already at or above
// target, installs the line at target and every level below it. Like
// demandAccess, each level's set probe is computed once and shared
// between the locate walk and the fills on the way back, and a level the
// walk proved resident is refreshed in place instead of rescanned.
// Returns the serving level and the fill latency — 0 when the hint was a
// no-op, since the requester never waits on a prefetch that is already
// close enough.
func (h *Hierarchy) pfAccess(now int64, a Addr, target Level) (Level, int64) {
	p1 := h.L1.setBase(a)
	if _, _, hit := h.L1.lookupAt(p1, false, now); hit {
		return LevelL1, 0 // already as close as any hint asks
	}
	p2 := h.L2.setBase(a)
	if i2, readyAt, hit := h.L2.lookupAt(p2, false, now); hit {
		if target >= LevelL2 {
			return LevelL2, 0
		}
		lat := residual(now, readyAt, h.L2.cfg.LatencyCyc)
		fill := now + lat
		h.shared.L3.Fill(a, fill, true)
		h.L2.refreshAt(i2, fill)
		h.L1.fillAt(p1, fill, true)
		return LevelL2, lat
	}
	p3 := h.shared.L3.setBase(a)
	if i3, readyAt, hit := h.shared.L3.lookupAt(p3, false, now); hit {
		if target >= LevelL3 {
			return LevelL3, 0
		}
		lat := residual(now, readyAt, h.shared.L3.cfg.LatencyCyc)
		fill := now + lat
		h.shared.L3.refreshAt(i3, fill)
		if target <= LevelL2 {
			h.L2.fillAt(p2, fill, true)
		}
		if target == LevelL1 {
			h.L1.fillAt(p1, fill, true)
		}
		return LevelL3, lat
	}
	h.shared.recordFill(a, true)
	lat := h.shared.L3.cfg.LatencyCyc + h.shared.memLatency(a)
	fill := now + lat
	h.shared.L3.fillAt(p3, fill, true)
	if target <= LevelL2 {
		h.L2.fillAt(p2, fill, true)
	}
	if target == LevelL1 {
		h.L1.fillAt(p1, fill, true)
	}
	return LevelDRAM, lat
}
