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
// byte-identical-at-any-worker-count determinism property. The chaos
// schedule (chaos.go) lands on the same per-node timelines, so one
// faultState serves both sources through one apply path.

import (
	"fmt"

	"dlrmsim/internal/check"
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

// validateErrs reports every violation in the model, one per field.
func (f FaultModel) validateErrs() []error {
	var errs []error
	if !(f.DropProb >= 0 && f.DropProb < 1) {
		errs = append(errs, fmt.Errorf("cluster: drop probability %g outside [0,1)", f.DropProb))
	}
	for _, k := range []struct {
		name string
		ms   float64
	}{
		{"slowdown interval", f.SlowdownEveryMs}, {"slowdown duration", f.SlowdownMeanMs},
		{"outage interval", f.DownEveryMs}, {"outage duration", f.DownMeanMs},
		{"drop detection delay", f.DropDetectMs},
	} {
		if !check.NonNeg(k.ms) {
			errs = append(errs, fmt.Errorf("cluster: fault %s %g ms (need finite >= 0)", k.name, k.ms))
		}
	}
	if f.SlowdownEveryMs > 0 {
		if f.SlowdownMeanMs == 0 {
			errs = append(errs, fmt.Errorf("cluster: slowdown episodes need a positive mean duration"))
		}
		if !(f.SlowdownFactor >= 1 && check.Finite(f.SlowdownFactor)) {
			errs = append(errs, fmt.Errorf("cluster: slowdown factor %g (need finite >= 1)", f.SlowdownFactor))
		}
	}
	if f.DownEveryMs > 0 && f.DownMeanMs == 0 {
		errs = append(errs, fmt.Errorf("cluster: unavailability windows need a positive mean duration"))
	}
	return errs
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

// validateErrs reports every violation in the policy, one per field or
// rule.
func (m Mitigation) validateErrs() []error {
	var errs []error
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"timeout", m.TimeoutMs}, {"hedge delay", m.HedgeDelayMs}, {"retry budget", m.RetryBudget},
		{"adaptive epoch", m.AdaptEpochMs}, {"breaker cooldown", m.BreakerCooldownMs},
	} {
		if !check.NonNeg(k.v) {
			errs = append(errs, fmt.Errorf("cluster: mitigation %s %g (need finite >= 0)", k.name, k.v))
		}
	}
	if m.MaxRetries < 0 || m.BreakerMinSamples < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative mitigation count (retries %d, breaker min samples %d)",
			m.MaxRetries, m.BreakerMinSamples))
	}
	if m.MaxRetries > 0 && m.TimeoutMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: retries need a timeout to fire on"))
	}
	if m.DegradedJoin && m.TimeoutMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: degraded joins need a timeout deadline"))
	}
	if m.RetryBudget > 0 && m.MaxRetries <= 0 && m.HedgeDelayMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: a retry budget needs retries or hedges to cap"))
	}
	if m.BreakerTripRate != 0 && !(m.BreakerTripRate > 0 && m.BreakerTripRate <= 1) {
		errs = append(errs, fmt.Errorf("cluster: breaker trip rate %g outside (0,1]", m.BreakerTripRate))
	}
	if m.BreakerTripRate > 0 && m.TimeoutMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: circuit breakers need a timeout to measure against"))
	}
	if m.BreakerTripRate == 0 && (m.BreakerMinSamples != 0 || m.BreakerCooldownMs != 0) {
		errs = append(errs, fmt.Errorf("cluster: breaker knobs (min samples %d, cooldown %g ms) need a trip rate",
			m.BreakerMinSamples, m.BreakerCooldownMs))
	}
	if !m.adaptive() && m.AdaptEpochMs != 0 {
		errs = append(errs, fmt.Errorf("cluster: adaptive epoch %g ms needs a retry budget or breaker trip rate", m.AdaptEpochMs))
	}
	return errs
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

// Fault sources, in the order their effects compose on a copy.
const (
	srcStochastic = iota // FaultModel's seeded episodes
	srcChaos             // ChaosSchedule's scripted windows
	numSources
)

// nodeFaults is one node's fault timelines, one per effect and source.
// The stochastic source seeds its timelines lazily on (seed, node), so
// the windows are a pure function of both no matter when, or in what
// order, the simulation asks about them; chaos fills its own whole at
// init. Slowdown timelines are disjoint, so one binary search answers
// them; outage windows are pushed onto the node's queue in start order.
type nodeFaults struct {
	down, slow [numSources]stats.Timeline
	pushed     [numSources]int // outage windows already pushed onto the node's queue
}

// faultState is one run's fault model: every source's outage and
// slowdown windows on one per-node timeline set, plus the transport's
// drop coin and the chaos schedule's partition and recovery data
// (chaos.go). The run holds it by value (openRun.faultSt), so its
// buffers recycle with the run.
type faultState struct {
	model FaultModel
	seed  uint64
	nodes []nodeFaults

	// Chaos-only data; domains is 0 without a schedule.
	domains int
	nodeDom []int32     // node → failure domain
	pairs   []severance // severed domain pairs and their windows
	clearMs float64     // last chaos window end: the fault-clear instant
	raws    []chaosRaw  // build scratch
	cuts    []float64   // build scratch
}

// init rewinds the state for a validated, default-applied config:
// lazy stochastic timelines on every node, then the chaos schedule's
// windows copied onto the nodes of their domain.
func (fs *faultState) init(cfg *Config, nodes int) {
	m := &cfg.Faults
	fs.model, fs.seed = *m, cfg.Seed
	fs.nodes = arenaSlice(&fs.nodes, nodes)
	for n := range fs.nodes {
		nf := &fs.nodes[n]
		nf.slow[srcStochastic].Seed(cfg.Seed^saltSlowdown, uint64(n), m.SlowdownEveryMs, m.SlowdownMeanMs, m.SlowdownFactor)
		nf.down[srcStochastic].Seed(cfg.Seed^saltOutage, uint64(n), m.DownEveryMs, m.DownMeanMs, 0)
		nf.slow[srcChaos].Reset() // filled by initChaos
		nf.down[srcChaos].Reset()
		nf.pushed = [numSources]int{}
	}
	fs.initChaos(&cfg.Chaos, nodes)
}

// apply is the one place a copy meets the fault model at its node:
// every source's outage windows opening by t are pushed onto q, and svc
// comes back stretched by each source's slowdown factor at t — one
// multiplication per source, stochastic first. Outages are pushed in
// start order as arrivals reach them, per serve.Queue.Unavailable's
// contract, and never merged: a union would raise the queue past a
// window's own end for a copy that arrives before the next one opens.
// Retries and hedges launch later than subsequently dispatched queries,
// so slowdown lookups are not monotone in t.
func (fs *faultState) apply(node int, t float64, q *serve.Queue, svc float64) float64 {
	if fs == nil {
		return svc
	}
	nf := &fs.nodes[node]
	for src := range nf.down {
		tl := &nf.down[src]
		tl.Extend(t)
		for ; nf.pushed[src] < len(tl.Win) && tl.Win[nf.pushed[src]].Start <= t; nf.pushed[src]++ {
			q.Unavailable(tl.Win[nf.pushed[src]].End)
		}
	}
	for src := range nf.slow {
		if w, in := nf.slow[src].At(t); in && w.Factor != 1 {
			svc *= w.Factor
		}
	}
	return svc
}

// transit returns how long faults delay one copy's node arrival, and
// the re-sends that costs: first the transport's drop re-sends
// (resends × DropDetectMs — losses are recovered below the router under
// any policy, so delivery always completes), then chaos partition
// severance of the flight from home to node leaving at launch plus that
// delay.
func (fs *faultState) transit(q, home, node, attempt int, launch, transitMs float64) (shift float64, resends int) {
	if fs == nil {
		return 0, 0
	}
	if p := fs.model.DropProb; p > 0 {
		coin := fs.dropStream(q, node, attempt, len(fs.nodes))
		for coin.Float64() < p {
			resends++
			shift += fs.model.DropDetectMs
		}
	}
	if len(fs.pairs) > 0 {
		ps, pr := fs.severShift(home, node, launch+shift, transitMs)
		shift += ps
		resends += pr
	}
	return shift, resends
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
