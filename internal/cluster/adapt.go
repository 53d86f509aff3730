package cluster

// Adaptive overload control: a global retry/hedge budget and per-node
// circuit breakers, the production-RPC-stack answer to retry-storm
// metastability — after a fault clears, naive timeout retries keep
// effective load above capacity indefinitely; capping conditional
// copies at a fraction of primary traffic and suppressing copies to
// broken nodes lets the backlog drain.
//
// All adaptive state evolves on a fixed epoch grid (k·epochMs), so a
// suppression decision does not depend on where in its epoch a copy
// sits (DESIGN.md §15). The grid defines the output:
//
//   - During an epoch, observations accumulate as pending *integer*
//     counters that nothing reads: primaries/conditionals served (the
//     budget's traffic measure) and per-node attempt/slow counts (the
//     breaker's timeout-rate window).
//   - At each boundary, settle() folds pending into settled state and
//     runs the breaker transitions in node order. Suppression decisions
//     (allowCond) read settled state only.
//
// The event loop settles each boundary b after exactly the copies with
// arrive < b: it advances lazily before each copy.
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

// adaptState is one run's adaptive-mitigation state. The run holds it
// by value (openRun.adaptSt), so its per-node slices recycle with the
// run.
type adaptState struct {
	m *Mitigation // the run's policy, defaults resolved

	boundary float64 // next unsettled epoch boundary

	// Settled state — with the policy, all that allowCond reads.
	primServed   int64
	condLaunched int64
	breakers     []breakerUnit

	// Pending within the current epoch: launch counts, and per-node
	// attempt/slow counts for the breakers.
	pendPrim, pendCond int64
	attempts, slow     []int32

	openNodeMs float64 // breaker-open node·ms accrued at settled epochs
	lastT      float64 // max arrive over processed copies (finalize's tail)
}

func (ad *adaptState) init(m *Mitigation, nodes int) {
	ad.m = m
	ad.boundary = m.AdaptEpochMs
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

// advanceTo settles every epoch boundary at or before t. The loop calls
// it before each copy.
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
	if ad.m.BreakerTripRate > 0 {
		for n := range ad.breakers {
			br := &ad.breakers[n]
			a, s := ad.attempts[n], ad.slow[n]
			ad.attempts[n], ad.slow[n] = 0, 0
			switch br.state {
			case breakerOpen:
				// Open for the whole epoch just ended; the counts are
				// primaries-only traffic, not a probe — discard them.
				ad.openNodeMs += ad.m.AdaptEpochMs
				if b >= br.until {
					br.state = breakerHalfOpen
				}
			case breakerClosed:
				if int(a) >= ad.m.BreakerMinSamples && float64(s) >= ad.m.BreakerTripRate*float64(a) {
					br.state, br.until = breakerOpen, b+ad.m.BreakerCooldownMs
				}
			case breakerHalfOpen:
				// Probe epoch: any conditional traffic went through; no
				// traffic at all means no verdict yet.
				if a > 0 {
					if float64(s) >= ad.m.BreakerTripRate*float64(a) {
						br.state, br.until = breakerOpen, b+ad.m.BreakerCooldownMs
					} else {
						br.state = breakerClosed
					}
				}
			}
		}
	}
	ad.boundary = b + ad.m.AdaptEpochMs
}

// allowCond decides whether a conditional copy (hedge or timeout retry)
// targeting node may launch. Reads settled state only — the decision is
// identical wherever in the current epoch the copy sits.
func (ad *adaptState) allowCond(node int) bool {
	if ad.m.RetryBudget > 0 && float64(ad.condLaunched) >= ad.m.RetryBudget*float64(ad.primServed) {
		return false
	}
	if ad.m.BreakerTripRate > 0 && ad.breakers[node].state == breakerOpen {
		return false
	}
	return true
}

// observe records one launched copy's outcome into the pending epoch:
// respMs is the router-observed response time past the copy's launch
// (back − launch), the quantity the router's timeout fires on.
func (ad *adaptState) observe(node int, kind copyKind, respMs float64) {
	if kind == copyPrimary {
		ad.pendPrim++
	} else {
		ad.pendCond++
	}
	if ad.m.BreakerTripRate > 0 {
		ad.attempts[node]++
		if respMs > ad.m.TimeoutMs {
			ad.slow[node]++
		}
	}
}

// finalize accrues the open-breaker time of the final partial epoch and
// returns total breaker-open node·ms. Every boundary at or before the
// last processed copy has settled, so only the tail
// [boundary−epochMs, lastT] is pending.
func (ad *adaptState) finalize() float64 {
	if check.Enabled {
		check.Assert(ad.boundary > ad.lastT,
			"cluster: adaptive settle behind schedule (boundary %g, last copy %g)", ad.boundary, ad.lastT)
	}
	if ad.m.BreakerTripRate > 0 {
		if tail := ad.lastT - (ad.boundary - ad.m.AdaptEpochMs); tail > 0 {
			for n := range ad.breakers {
				if ad.breakers[n].state == breakerOpen {
					ad.openNodeMs += tail
				}
			}
		}
	}
	return ad.openNodeMs
}
