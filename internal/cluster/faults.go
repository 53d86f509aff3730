package cluster

// The robustness subsystem: a deterministic fault model injected into
// Simulate (per-node slowdown episodes, transient unavailability windows,
// sub-request drops) and the router-side mitigation policies that survive
// it (per-sub-request timeouts with bounded retry to a standby, hedged
// backups, degraded joins). A perfect fleet is the zero value of both
// structs, and with both zero the simulation arithmetic is byte-identical
// to the pre-fault simulator.
//
// Substitution statement: real fleets fail through kernel scheduling
// stalls, GC pauses, deployment restarts, and packet loss; we substitute
// three seeded processes — exponential on/off slowdown episodes,
// exponential on/off outage windows (applied to the node's queue via
// serve.Queue.Unavailable), and an i.i.d. per-copy drop coin. The
// mitigation side mirrors the standard production toolkit (cf. the
// tail-at-scale literature and BagPipe's degraded cached lookups): each
// shard has a standby owner at node (owner+k) mod N that can serve the
// shard's rows, the router hedges a backup copy after a fixed delay, and
// a degraded join returns partial pooled sums when the retry budget's
// deadline passes, trading completeness for bounded tail latency.
//
// Every draw is a pure function of (Seed, query, node, attempt) via
// stats.SplitSeed, and per-node episode timelines are pure functions of
// (Seed, node), so fault-injected results keep the registry-wide
// byte-identical-at-any-worker-count determinism property.

import (
	"fmt"

	"dlrmsim/internal/serve"
	"dlrmsim/internal/stats"
)

// FaultModel describes the deterministic fault processes injected into a
// cluster simulation. The zero value injects nothing.
type FaultModel struct {
	// SlowdownEveryMs is the mean interval between per-node slowdown
	// episodes (exponential gaps; 0 disables slowdowns).
	SlowdownEveryMs float64
	// SlowdownMeanMs is the mean duration of one slowdown episode
	// (exponential durations).
	SlowdownMeanMs float64
	// SlowdownFactor multiplies a node's service times while an episode
	// is active (≥ 1; e.g. 4 models a node at quarter speed).
	SlowdownFactor float64
	// DownEveryMs is the mean interval between per-node transient
	// unavailability windows (exponential gaps; 0 disables outages).
	// While a window is open the node's servers accept no new work
	// (serve.Queue.Unavailable); requests arriving mid-window wait it
	// out unless the router's mitigation gives up on them first.
	DownEveryMs float64
	// DownMeanMs is the mean outage duration (exponential durations).
	DownMeanMs float64
	// DropProb is the probability each dispatched sub-request copy
	// (primary, hedge, or retry) is lost in transit, in [0, 1).
	DropProb float64
	// DropDetectMs is the transport-level loss-detection delay: a
	// dropped copy is noticed and re-sent to the same target this long
	// after its dispatch, under any router policy — the transport's
	// retransmit timer sits below the router's timeout, as in real RPC
	// stacks. Defaults to 1 ms when DropProb > 0.
	DropDetectMs float64
}

// Active reports whether the model injects any fault.
func (f FaultModel) Active() bool {
	return f.SlowdownEveryMs > 0 || f.DownEveryMs > 0 || f.DropProb > 0
}

func (f FaultModel) validate() error {
	if f.DropProb < 0 || f.DropProb >= 1 {
		return fmt.Errorf("cluster: drop probability %g outside [0,1)", f.DropProb)
	}
	if f.SlowdownEveryMs < 0 || f.DownEveryMs < 0 || f.SlowdownMeanMs < 0 || f.DownMeanMs < 0 || f.DropDetectMs < 0 {
		return fmt.Errorf("cluster: negative fault interval")
	}
	if f.SlowdownEveryMs > 0 {
		if f.SlowdownMeanMs <= 0 {
			return fmt.Errorf("cluster: slowdown episodes need a positive mean duration")
		}
		if f.SlowdownFactor < 1 {
			return fmt.Errorf("cluster: slowdown factor %g < 1", f.SlowdownFactor)
		}
	}
	if f.DownEveryMs > 0 && f.DownMeanMs <= 0 {
		return fmt.Errorf("cluster: unavailability windows need a positive mean duration")
	}
	return nil
}

// applyDefaults resolves the zero-means-default detection delay.
func (f *FaultModel) applyDefaults() {
	if f.DropProb > 0 && f.DropDetectMs == 0 {
		f.DropDetectMs = 1
	}
}

// Mitigation is the router-side policy for surviving faults. The zero
// value is the naive router: every response is awaited however long it
// takes (transit losses are still recovered by the transport's
// DropDetectMs re-sends), no hedging, no degraded joins.
type Mitigation struct {
	// TimeoutMs is the per-sub-request attempt deadline measured from
	// dispatch: when no response has arrived k·TimeoutMs after the
	// sub-request was dispatched, the router launches retry k to the
	// shard's standby chain. 0 disables timeouts.
	TimeoutMs float64
	// MaxRetries bounds the timeout-driven retries. Retry k targets node
	// (owner+k) mod Nodes — the shard's standby chain. When the budget is
	// exhausted and DegradedJoin is false, the router waits out the
	// slowest in-flight copy.
	MaxRetries int
	// HedgeDelayMs launches one backup copy to the shard's standby owner
	// this long after dispatch when no response has arrived yet — the
	// classic hedged request. The earliest response wins. 0 disables
	// hedging.
	HedgeDelayMs float64
	// DegradedJoin lets the router give up on a sub-request at the retry
	// budget's final deadline, dispatch+(MaxRetries+1)·TimeoutMs, joining
	// the query with partial pooled sums: the abandoned shard's lookups
	// are excluded and the query's Completeness drops below 1.
	//
	// Contract: DegradedJoin REQUIRES TimeoutMs > 0 — the degraded join
	// is defined by the timeout deadline, so it cannot stand alone.
	// validate rejects the combination; it is not a silent no-op.
	DegradedJoin bool

	// The adaptive-overload knobs below (adapt.go) turn the static
	// policy above into one that stops retry storms from amplifying
	// load. All adaptive state evolves on a fixed epoch grid so output
	// stays byte-identical under the parallel execution backend.

	// RetryBudget caps conditional copies (hedges + timeout retries) at
	// this fraction of primary copies served, cumulatively: a
	// conditional launches only while launched conditionals stay under
	// RetryBudget·primaries, measured at epoch boundaries. 0 disables
	// the budget. Until the first epoch settles the measured traffic is
	// zero and conditionals are denied — a ≤-one-epoch warmup artifact.
	RetryBudget float64
	// AdaptEpochMs is the adaptive control epoch: budget and breaker
	// decisions see state settled at multiples of it. 0 defaults to
	// 4·TimeoutMs (or 4·HedgeDelayMs with no timeout).
	AdaptEpochMs float64
	// BreakerTripRate opens a node's circuit breaker when, in one epoch
	// with at least BreakerMinSamples attempts, the fraction of copies
	// answering past TimeoutMs reaches it (in (0, 1]). An open breaker
	// suppresses conditional copies to the node; primaries always flow.
	// 0 disables breakers; > 0 requires TimeoutMs > 0.
	BreakerTripRate float64
	// BreakerMinSamples is the minimum per-epoch attempt count before a
	// closed breaker may trip (0 defaults to 10).
	BreakerMinSamples int
	// BreakerCooldownMs holds an open breaker before it half-opens to
	// probe (0 defaults to 4 epochs).
	BreakerCooldownMs float64
}

// Active reports whether any mitigation is configured.
func (m Mitigation) Active() bool {
	return m.TimeoutMs > 0 || m.MaxRetries > 0 || m.HedgeDelayMs > 0 || m.DegradedJoin
}

// adaptive reports whether the adaptive-overload machinery (adapt.go)
// engages: a retry/hedge budget, per-node breakers, or both.
func (m *Mitigation) adaptive() bool {
	return m.RetryBudget > 0 || m.BreakerTripRate > 0
}

// validate checks the policy.
func (m Mitigation) validate() error {
	if m.TimeoutMs < 0 || m.HedgeDelayMs < 0 || m.MaxRetries < 0 {
		return fmt.Errorf("cluster: negative mitigation parameter")
	}
	if m.MaxRetries > 0 && m.TimeoutMs <= 0 {
		return fmt.Errorf("cluster: retries need a timeout to fire on")
	}
	if m.DegradedJoin && m.TimeoutMs <= 0 {
		return fmt.Errorf("cluster: degraded joins need a timeout deadline")
	}
	if m.RetryBudget < 0 || m.AdaptEpochMs < 0 || m.BreakerCooldownMs < 0 || m.BreakerMinSamples < 0 {
		return fmt.Errorf("cluster: negative adaptive-mitigation parameter")
	}
	if m.RetryBudget > 0 && m.MaxRetries <= 0 && m.HedgeDelayMs <= 0 {
		return fmt.Errorf("cluster: a retry budget needs retries or hedges to cap")
	}
	if m.BreakerTripRate != 0 && !(m.BreakerTripRate > 0 && m.BreakerTripRate <= 1) {
		return fmt.Errorf("cluster: breaker trip rate %g outside (0,1]", m.BreakerTripRate)
	}
	if m.BreakerTripRate > 0 && m.TimeoutMs <= 0 {
		return fmt.Errorf("cluster: circuit breakers need a timeout to measure against")
	}
	if m.BreakerTripRate == 0 && (m.BreakerMinSamples != 0 || m.BreakerCooldownMs != 0) {
		return fmt.Errorf("cluster: breaker knobs (min samples %d, cooldown %g ms) need a trip rate",
			m.BreakerMinSamples, m.BreakerCooldownMs)
	}
	if !m.adaptive() && m.AdaptEpochMs != 0 {
		return fmt.Errorf("cluster: adaptive epoch %g ms needs a retry budget or breaker trip rate", m.AdaptEpochMs)
	}
	return nil
}

// applyDefaults resolves the adaptive zero-means-default knobs; they stay
// zero when the adaptive machinery is off.
func (m *Mitigation) applyDefaults() {
	if !m.adaptive() {
		return
	}
	if m.AdaptEpochMs == 0 {
		if m.TimeoutMs > 0 {
			m.AdaptEpochMs = 4 * m.TimeoutMs
		} else {
			m.AdaptEpochMs = 4 * m.HedgeDelayMs
		}
	}
	if m.BreakerTripRate > 0 {
		if m.BreakerMinSamples == 0 {
			m.BreakerMinSamples = 10
		}
		if m.BreakerCooldownMs == 0 {
			m.BreakerCooldownMs = 4 * m.AdaptEpochMs
		}
	}
}

// seed salts for the fault subsystem's independent streams.
const (
	saltSlowdown uint64 = 0x510D0
	saltOutage   uint64 = 0xD0109
	saltDrop     uint64 = 0xD60B
	saltRetry    uint64 = 0x9ED6E
)

// track lazily materializes one node's episode timeline: alternating
// exponential gaps and durations from a dedicated split stream, so the
// windows are a pure function of (seed, node) no matter when — or in what
// order — the simulation asks about them.
type track struct {
	rng     stats.RNG
	gapMean float64
	durMean float64
	win     [][2]float64
	horizon float64 // timeline materialized through this instant
	applied int     // windows already pushed onto the node's queue
}

// init rewinds the track to an empty timeline on (seed, salt, node),
// keeping the window buffer's capacity.
func (tr *track) init(seed, salt uint64, node int, gapMean, durMean float64) {
	*tr = track{
		rng:     stats.SeededRNG(stats.SplitSeed(seed^salt, uint64(node))),
		gapMean: gapMean,
		durMean: durMean,
		win:     tr.win[:0],
	}
}

// extend materializes windows until the timeline covers t.
func (tr *track) extend(t float64) {
	for tr.horizon <= t {
		start := tr.horizon + tr.rng.ExpFloat64()*tr.gapMean
		end := start + tr.rng.ExpFloat64()*tr.durMean
		tr.win = append(tr.win, [2]float64{start, end})
		tr.horizon = end
	}
}

// inside reports whether t falls in an episode window. Because retries
// and hedges launch later than subsequently dispatched queries, lookups
// are not monotone in t; the materialized timeline answers any t below
// the horizon.
func (tr *track) inside(t float64) bool {
	tr.extend(t)
	lo, hi := 0, len(tr.win)
	for lo < hi { // first window with start > t
		mid := (lo + hi) / 2
		if tr.win[mid][0] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && t < tr.win[lo-1][1]
}

// faultState carries the per-node fault timelines of one simulation run.
// It lives in the run arena and recycles its tracks and their window
// buffers.
type faultState struct {
	model FaultModel
	seed  uint64
	slow  []track // one per node; empty when slowdowns are off
	down  []track // one per node; empty when outages are off
}

// init rewinds the state to fresh timelines for model on nodes nodes.
func (fs *faultState) init(model FaultModel, seed uint64, nodes int) {
	fs.model, fs.seed = model, seed
	fs.slow = initTracks(fs.slow, nodes, seed, saltSlowdown, model.SlowdownEveryMs, model.SlowdownMeanMs)
	fs.down = initTracks(fs.down, nodes, seed, saltOutage, model.DownEveryMs, model.DownMeanMs)
}

// initTracks rewinds one track per node, or returns ts emptied when the
// process is off (gapMean 0).
func initTracks(ts []track, nodes int, seed, salt uint64, gapMean, durMean float64) []track {
	if gapMean <= 0 {
		return ts[:0]
	}
	ts = arenaSlice(&ts, nodes)
	for n := range ts {
		ts[n].init(seed, salt, n, gapMean, durMean)
	}
	return ts
}

// slowFactor returns the service-time multiplier in effect on node at t.
func (fs *faultState) slowFactor(node int, t float64) float64 {
	if fs == nil || len(fs.slow) == 0 || !fs.slow[node].inside(t) {
		return 1
	}
	return fs.model.SlowdownFactor
}

// applyOutages pushes every outage window opening by t onto the node's
// queue. Windows are applied in start order as arrivals reach them, per
// serve.Queue.Unavailable's contract.
func (fs *faultState) applyOutages(node int, t float64, q *serve.Queue) {
	if fs == nil || len(fs.down) == 0 {
		return
	}
	tr := &fs.down[node]
	tr.extend(t)
	for tr.applied < len(tr.win) && tr.win[tr.applied][0] <= t {
		q.Unavailable(tr.win[tr.applied][1])
		tr.applied++
	}
}

// dropStream returns the deterministic coin stream deciding how many
// consecutive copies of attempt a of query q's sub-request to node the
// transport loses before one gets through.
func (fs *faultState) dropStream(q, node, attempt, nodes int) stats.RNG {
	key := stats.SplitSeed(fs.seed^saltDrop, uint64(q)*uint64(nodes)+uint64(node))
	return stats.SeededRNG(stats.SplitSeed(key, uint64(attempt)))
}

// retryJitter is the jitter draw for retry/hedge copies — primaries keep
// the legacy (q, node) stream so fault-free runs stay byte-identical.
func retryJitter(seed uint64, q, node, attempt, nodes int) float64 {
	key := stats.SplitSeed(seed^saltRetry, uint64(q)*uint64(nodes)+uint64(node))
	rng := stats.SeededRNG(stats.SplitSeed(key, uint64(attempt)))
	return rng.NormFloat64()
}

// dropShift returns how long the transport's retransmit timer delays one
// copy's node arrival (resends × DropDetectMs): losses are recovered
// below the router under any policy, so delivery always completes.
func (fs *faultState) dropShift(q, node, attempt, nodes int) (shift float64, resends int) {
	if fs == nil || fs.model.DropProb <= 0 {
		return 0, 0
	}
	coin := fs.dropStream(q, node, attempt, nodes)
	for coin.Float64() < fs.model.DropProb {
		resends++
		shift += fs.model.DropDetectMs
	}
	return shift, resends
}
