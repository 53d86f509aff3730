package cluster

// Execution-backend selection (DESIGN.md §14): HOW one simulation run
// executes its event processing — one goroutine walking the copyCmp
// order end to end (Sequential), or the fleet's nodes partitioned into P
// logical processes that serve disjoint node sets concurrently
// (Parallel), synchronized with conservative time windows.
//
// The conservative-window argument: every copy travels a network hop,
// so a copy launched at router time L arrives at its node no earlier
// than L + Net.LatencyMs, and every response leaves its node no earlier
// than its arrival plus the same hop. With lookahead Lat = Net.LatencyMs
// and a window [W, W+Lat):
//
//   - every in-window copy has launch <= arrive - Lat < W, and
//   - every in-window response reaches the router at
//     back >= arrive + Lat >= W + Lat > launch of any in-window copy,
//
// so no in-window best-response update can suppress an in-window
// conditional copy (hedge/retry): suppression decisions depend only on
// state merged at the previous barrier. Each node's FCFS queue is owned
// by exactly one partition and still sees its submissions in canonical
// order, so queue evolution is bit-for-bit sequential. The remaining
// cross-partition effects — the router-side best response (float min),
// retry counts (integer sums), hedged flags (boolean or), and the
// max-queue-wait high-water mark (float max) — are commutative-exact,
// so deferring them to the barrier reproduces the sequential values
// bitwise in any merge order. Net result: byte-identical output to the
// Sequential backend at any partition count, pinned by internal/exp's
// differential suite across the experiment registry.
//
// When the mitigation policy schedules no conditional copies, no
// decision ever reads the deferred state mid-run and the whole run is
// one infinite window. When it does and the network hop is free
// (LatencyMs == 0) there is no lookahead to exploit, and the run falls
// back to the sequential path regardless of the configured backend.

import (
	"sync"

	"dlrmsim/internal/serve"
	"dlrmsim/internal/stats"
)

// ExecBackend names one execution strategy for a single run. The zero
// value is Sequential.
type ExecBackend struct {
	shards int
}

// Sequential is the default single-goroutine execution backend.
var Sequential = ExecBackend{}

// Parallel returns the conservative-window parallel backend with the
// given partition (logical process) count. Parallel(1) and values below
// 1 degrade to Sequential.
func Parallel(shards int) ExecBackend {
	return ExecBackend{shards: shards}
}

// Shards returns the backend's partition count (1 for Sequential).
func (b ExecBackend) Shards() int {
	if b.shards < 1 {
		return 1
	}
	return b.shards
}

// execBackend is the process-wide execution backend: the CLIs set it
// once at startup, the differential suite flips it around whole registry
// renders, and callers must not run simulations concurrently with
// different backends.
var execBackend = Sequential

// SetExecBackend overrides the execution backend and returns a restore
// func.
func SetExecBackend(b ExecBackend) (restore func()) {
	prev := execBackend
	execBackend = b
	return func() { execBackend = prev }
}

// execParts resolves the effective partition count for a fleet: never
// more partitions than nodes (an empty partition is pure overhead).
func execParts(nodes int) int {
	p := execBackend.Shards()
	if p > nodes {
		p = nodes
	}
	if p < 1 {
		p = 1
	}
	return p
}

// execFanOutMin is the window size below which the partitioned window
// is served inline on the calling goroutine instead of fanning out:
// with conservative lookahead near the inter-event spacing most windows
// hold a handful of copies, and a goroutine handoff costs more than the
// serving. The inline path runs the same deferred-merge arithmetic, so
// the threshold is unobservable in the output (package var only so
// tests can force the fan-out path on small runs).
var execFanOutMin = 48

// runParts invokes fn(p) for every partition 0..parts-1, on the calling
// goroutine when parts == 1 and on parts goroutines (caller included)
// otherwise.
func runParts(parts int, fn func(p int)) {
	if parts <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		go func(p int) {
			defer wg.Done()
			fn(p)
		}(p)
	}
	fn(0)
	wg.Wait()
}

// copyDelta is one served copy's deferred cross-partition effects: the
// router-side state a partition may not write mid-window because
// another partition could be reading it. All fields merge
// commutative-exactly (min, sum, or).
type copyDelta struct {
	sub     int
	back    float64
	retries int32
	hedged  bool
}

// partScratch is one partition's per-window working set, reused across
// windows.
type partScratch struct {
	copies  []subCopy   // this partition's canonical-order subsequence
	deltas  []copyDelta // deferred sub-state updates
	maxWait float64     // deferred post-warmup queue-wait high-water mark

	// Deferred adaptive-mitigation observations (adapt.go): integer
	// primary/conditional launch counts (commutative-exact sums) and the
	// partition's max processed-copy arrival (float max), folded into
	// adaptState at the barrier. Per-node attempt/slow counts skip the
	// scratch — each node is owned by one partition per window.
	pendPrim, pendCond int64
	maxT               float64
}

// efEntry records a node's earliest-free instant right after one copy
// was served — the per-node history the open-loop admission control
// reconstructs backlog-as-of-t from (openparallel.go).
type efEntry struct {
	arrive float64
	ef     float64
}

// serveCopyDeferred processes one copy at its node-arrival instant on
// node: conditional launch suppression, fault and chaos application,
// jitter, and FCFS submission. Every cross-partition write is deferred
// into ps: the suppression check reads the barrier-merged sub.best
// (exact, per the window argument above), the node's queue and fault
// timelines are partition-owned and mutated directly, and the sub-state
// updates are recorded as a delta for applyDeltas. When efHist is
// non-nil the node's post-submit earliest-free instant is appended to
// its history. Must be called in copyCmp order per node; the sequential
// drivers reach it through serveCopy.
func (s *simState) serveCopyDeferred(c *subCopy, node int, ps *partScratch, efHist [][]efEntry) {
	ad := s.adapt
	if ad != nil && c.arrive > ps.maxT {
		ps.maxT = c.arrive
	}
	sub := &s.subs[c.sub]
	if c.kind != copyPrimary && sub.best <= c.launch {
		return // a response arrived before this deadline; never sent
	}
	if ad != nil && c.kind != copyPrimary && !ad.allowCond(node) {
		// Budget exhausted or breaker open: the copy is never launched,
		// so it counts in no rate metric (HedgeRate, RetriesPerQuery) —
		// launched copies count, suppressed ones don't, consistently.
		return
	}
	d := copyDelta{sub: c.sub}
	switch c.kind {
	case copyHedge:
		d.hedged = true
	case copyRetry:
		d.retries++
	}
	d.retries += int32(c.resends)
	cfg := &s.cfg
	s.faults.applyOutages(node, c.arrive, s.queues[node])
	s.chaos.applyOutages(node, c.arrive, s.queues[node])
	svc := sub.svcMs
	if f := s.faults.slowFactor(node, c.arrive); f != 1 {
		svc *= f
	}
	if f := s.chaos.slowFactor(node, c.arrive); f != 1 {
		svc *= f
	}
	if cfg.JitterFrac > 0 {
		var draw float64
		if c.attempt == 0 {
			j := stats.SeededRNG(stats.SplitSeed(cfg.Seed^0x717E2, uint64(sub.q*s.plan.Nodes+node)))
			draw = j.NormFloat64()
		} else {
			draw = retryJitter(cfg.Seed, sub.q, node, c.attempt, s.plan.Nodes)
		}
		svc *= serve.Jitter(cfg.JitterFrac, draw)
	}
	start, done := s.queues[node].Submit(c.arrive, svc)
	if sub.q >= cfg.WarmupQueries && sub.dispatch >= s.warmupMs {
		if w := start - c.arrive; w > ps.maxWait {
			ps.maxWait = w
		}
	}
	d.back = done + cfg.Net.LatencyMs + cfg.Net.TransferMs(sub.respBytes)
	ps.deltas = append(ps.deltas, d)
	if ad != nil {
		ad.observe(node, c.kind, d.back-c.launch, &ps.pendPrim, &ps.pendCond)
	}
	if efHist != nil {
		efHist[node] = append(efHist[node], efEntry{arrive: c.arrive, ef: s.queues[node].EarliestFree()})
	}
}

// applyDeltas folds every partition's deferred effects into the shared
// sub state at a window barrier. Each merge is commutative-exact, so
// the fold order cannot perturb the result.
func (s *simState) applyDeltas(scratch []partScratch) {
	for p := range scratch {
		s.applyScratch(&scratch[p])
	}
}

// applyScratch folds one partition's deferred effects and clears them.
func (s *simState) applyScratch(ps *partScratch) {
	for i := range ps.deltas {
		d := &ps.deltas[i]
		sub := &s.subs[d.sub]
		if d.back < sub.best {
			sub.best = d.back
		}
		sub.retries += int(d.retries)
		if d.hedged {
			sub.hedged = true
		}
	}
	ps.deltas = ps.deltas[:0]
	if ps.maxWait > s.maxWait {
		s.maxWait = ps.maxWait
	}
	ps.maxWait = 0
	if ad := s.adapt; ad != nil {
		ad.pendPrim += ps.pendPrim
		ad.pendCond += ps.pendCond
		ps.pendPrim, ps.pendCond = 0, 0
		if ps.maxT > ad.lastT {
			ad.lastT = ps.maxT
		}
		ps.maxT = 0
	}
}

// serveWindow serves one conservative window's copies — win is already
// in canonical (arrive, seq, attempt) order — under the partitioned
// deferred-merge discipline, then applies the barrier merge. routeTo,
// when non-nil, maps a copy's planned node to its serving node (the
// open loop's active-set routing, frozen for the window); partition
// ownership follows the routed node, so each node's queue is touched by
// exactly one goroutine. Small windows are served inline: identical
// arithmetic, no handoff.
func (s *simState) serveWindow(win []subCopy, parts int, scratch []partScratch, routeTo func(int) int, efHist [][]efEntry) {
	if parts <= 1 || len(win) < execFanOutMin {
		ps := &scratch[0]
		for i := range win {
			c := win[i]
			node := c.node
			if routeTo != nil {
				node = routeTo(node)
			}
			s.serveCopyDeferred(&c, node, ps, efHist)
		}
		s.applyDeltas(scratch[:1])
		return
	}
	for p := 0; p < parts; p++ {
		scratch[p].copies = scratch[p].copies[:0]
	}
	for i := range win {
		c := win[i]
		if routeTo != nil {
			c.node = routeTo(c.node)
		}
		scratch[c.node%parts].copies = append(scratch[c.node%parts].copies, c)
	}
	runParts(parts, func(p int) {
		ps := &scratch[p]
		for i := range ps.copies {
			c := &ps.copies[i]
			s.serveCopyDeferred(c, c.node, ps, efHist)
		}
	})
	s.applyDeltas(scratch[:parts])
}
