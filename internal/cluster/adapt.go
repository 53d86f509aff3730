package cluster

// Adaptive overload control: a global retry/hedge budget and per-node
// circuit breakers, the production-RPC-stack answer to retry-storm
// metastability — after a fault clears, naive timeout retries keep
// effective load above capacity indefinitely; capping conditional
// copies at a fraction of primary traffic and suppressing copies to
// broken nodes lets the backlog drain.
//
// The hard constraint is determinism under the conservative-window
// parallel backend (DESIGN.md §14): a token bucket read at every copy
// would make suppression decisions depend on the order copies are
// served *within* a window, which the partitioned backend does not
// preserve. Instead all adaptive state evolves on a fixed epoch grid
// (k·epochMs):
//
//   - During an epoch, observations accumulate as pending *integer*
//     counters that nothing reads: primaries/conditionals served (the
//     budget's traffic measure) and per-node attempt/slow counts (the
//     breaker's timeout-rate window). Integer sums merge commutative-
//     exactly at window barriers; per-node counters are written
//     directly because each node is owned by one partition.
//   - At each boundary, settle() folds pending into settled state and
//     runs the breaker transitions in node order. Suppression decisions
//     (allowCond) read settled state only.
//
// Both drivers settle each boundary b after exactly the copies with
// arrive < b: the sequential driver advances lazily before each copy;
// the parallel drivers truncate windows at the next boundary and
// advance at window starts, so no window spans a boundary and every
// pre-boundary copy has merged when a window at or past b opens. The
// result is byte-identical output at any partition and worker count.
//
// Budget: a conditional copy (hedge or timeout retry) launches only
// while settled condLaunched < RetryBudget·primServed — a cumulative
// deficit bucket on exact integers. Until the first epoch settles the
// counters are zero and conditionals are denied: a ≤-one-epoch warmup
// artifact, documented rather than special-cased.
//
// Breaker: closed → open when an epoch's attempts reach MinSamples and
// the slow fraction (response past TimeoutMs) reaches BreakerTripRate;
// open suppresses conditional copies to the node (primaries always
// flow — the shard has no other owner) until CooldownMs passes, then
// half-open lets conditionals probe; the next epoch with probe traffic
// closes or re-opens it.

import "dlrmsim/internal/check"

// breaker states.
const (
	breakerClosed uint8 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerUnit is one node's circuit breaker.
type breakerUnit struct {
	state uint8
	until float64 // open: first boundary at/past this half-opens
}

// adaptState is one run's adaptive-mitigation state. It lives in the
// run arena and recycles its per-node slices.
type adaptState struct {
	// Policy (from Mitigation, defaults resolved).
	epochMs    float64
	budget     float64
	budgetOn   bool
	breakerOn  bool
	timeoutMs  float64
	tripRate   float64
	minSamples int32
	cooldownMs float64

	boundary float64 // next unsettled epoch boundary

	// Settled state — the only fields allowCond reads.
	primServed   int64
	condLaunched int64
	breakers     []breakerUnit

	// Pending within the current epoch. pendPrim/pendCond arrive through
	// partScratch, folded after every copy by the sequential drivers and
	// at window barriers by the parallel ones. attempts/slow are
	// per-node and node-owned, so every driver writes them in place.
	pendPrim, pendCond int64
	attempts, slow     []int32

	openNodeMs float64 // breaker-open node·ms accrued at settled epochs
	lastT      float64 // max arrive over processed copies (finalize's tail)
}

func (ad *adaptState) init(m *Mitigation, nodes int) {
	ad.epochMs = m.AdaptEpochMs
	ad.budget = m.RetryBudget
	ad.budgetOn = m.RetryBudget > 0
	ad.breakerOn = m.BreakerTripRate > 0
	ad.timeoutMs = m.TimeoutMs
	ad.tripRate = m.BreakerTripRate
	ad.minSamples = int32(m.BreakerMinSamples)
	ad.cooldownMs = m.BreakerCooldownMs
	ad.boundary = ad.epochMs
	ad.primServed, ad.condLaunched = 0, 0
	ad.pendPrim, ad.pendCond = 0, 0
	ad.openNodeMs, ad.lastT = 0, 0
	ad.breakers = arenaSlice(&ad.breakers, nodes)
	ad.attempts = arenaSlice(&ad.attempts, nodes)
	ad.slow = arenaSlice(&ad.slow, nodes)
	for n := 0; n < nodes; n++ {
		ad.breakers[n] = breakerUnit{}
		ad.attempts[n], ad.slow[n] = 0, 0
	}
}

// advanceTo settles every epoch boundary at or before t. Drivers call
// it at sequential points only (before a copy, or at a window start).
func (ad *adaptState) advanceTo(t float64) {
	for ad.boundary <= t {
		ad.settle()
	}
}

// settle closes the epoch ending at the current boundary: fold pending
// budget counters, accrue open-breaker time, and run the breaker
// transitions in node order on the epoch's attempt/slow counts.
func (ad *adaptState) settle() {
	b := ad.boundary
	ad.primServed += ad.pendPrim
	ad.condLaunched += ad.pendCond
	ad.pendPrim, ad.pendCond = 0, 0
	if ad.breakerOn {
		for n := range ad.breakers {
			br := &ad.breakers[n]
			a, s := ad.attempts[n], ad.slow[n]
			ad.attempts[n], ad.slow[n] = 0, 0
			switch br.state {
			case breakerOpen:
				// Open for the whole epoch just ended; the counts are
				// primaries-only traffic, not a probe — discard them.
				ad.openNodeMs += ad.epochMs
				if b >= br.until {
					br.state = breakerHalfOpen
				}
			case breakerClosed:
				if a >= ad.minSamples && float64(s) >= ad.tripRate*float64(a) {
					br.state, br.until = breakerOpen, b+ad.cooldownMs
				}
			case breakerHalfOpen:
				// Probe epoch: any conditional traffic went through; no
				// traffic at all means no verdict yet.
				if a > 0 {
					if float64(s) >= ad.tripRate*float64(a) {
						br.state, br.until = breakerOpen, b+ad.cooldownMs
					} else {
						br.state = breakerClosed
					}
				}
			}
		}
	}
	ad.boundary = b + ad.epochMs
}

// allowCond decides whether a conditional copy (hedge or timeout retry)
// targeting node may launch. Reads settled state only — the decision is
// identical wherever in the current epoch the copy sits.
func (ad *adaptState) allowCond(node int) bool {
	if ad.budgetOn && float64(ad.condLaunched) >= ad.budget*float64(ad.primServed) {
		return false
	}
	if ad.breakerOn && ad.breakers[node].state == breakerOpen {
		return false
	}
	return true
}

// observe records one launched copy's outcome into the pending epoch:
// respMs is the router-observed response time past the copy's launch
// (back − launch), the quantity the router's timeout fires on. prim/
// cond go to the out-params, the caller's partScratch counters.
func (ad *adaptState) observe(node int, kind copyKind, respMs float64, pendPrim, pendCond *int64) {
	if kind == copyPrimary {
		*pendPrim++
	} else {
		*pendCond++
	}
	if ad.breakerOn {
		ad.attempts[node]++
		if respMs > ad.timeoutMs {
			ad.slow[node]++
		}
	}
}

// finalize accrues the open-breaker time of the final partial epoch and
// returns total breaker-open node·ms. Every boundary at or before the
// last processed copy has settled in either driver (windows never span
// a boundary), so only the tail [boundary−epochMs, lastT] is pending.
func (ad *adaptState) finalize() float64 {
	if check.Enabled {
		check.Assert(ad.boundary > ad.lastT,
			"cluster: adaptive settle behind schedule (boundary %g, last copy %g)", ad.boundary, ad.lastT)
	}
	if ad.breakerOn {
		if tail := ad.lastT - (ad.boundary - ad.epochMs); tail > 0 {
			for n := range ad.breakers {
				if ad.breakers[n].state == breakerOpen {
					ad.openNodeMs += tail
				}
			}
		}
	}
	return ad.openNodeMs
}
