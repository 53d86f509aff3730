package cluster

import (
	"fmt"
	"math"
	"slices"

	"dlrmsim/internal/serve"
	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
)

// wireHeaderBytes is the fixed per-message framing overhead charged on
// each network transfer (RPC envelope, offsets metadata).
const wireHeaderBytes = 64

// Config describes one cluster serving simulation.
type Config struct {
	// Plan is the sharding/replication placement (NewPlan).
	Plan *Plan
	// Hotness selects the access-concentration class of the query
	// stream, matching internal/trace's calibrated classes.
	Hotness trace.Hotness
	// SamplesPerQuery is the number of samples per query batch (each
	// sample performs Model.LookupsPerSample lookups in every table).
	SamplesPerQuery int
	// Timing is the per-node service model (TimingFromReport or explicit).
	Timing Timing
	// Net is the router↔node hop cost (zero value = free network;
	// DefaultNetwork gives datacenter-Ethernet defaults).
	Net Network
	// ServersPerNode is each node's concurrent server count (default 1) —
	// the cores the node dedicates to sub-request service.
	ServersPerNode int
	// MeanArrivalMs is the mean inter-arrival time of the Poisson query
	// load at the router (closed-loop mode; unused when Open is set).
	MeanArrivalMs float64
	// JitterFrac multiplies each sub-request's service time by
	// exp(J·N(0,1)), as in internal/serve. 0 disables jitter.
	JitterFrac float64
	// Queries is the number of queries to simulate (default 2000).
	Queries int
	// WarmupQueries are excluded from the percentiles. 0 means unset
	// (default 5% of Queries); -1 requests explicitly zero warmup.
	WarmupQueries int
	// Faults injects deterministic per-node slowdown episodes, transient
	// unavailability windows, and sub-request drops (zero = perfect
	// fleet).
	Faults FaultModel
	// Chaos scripts correlated failures over node failure domains —
	// domain outages, slowdowns, partitions between domain pairs, and
	// recoveries (chaos.go). Composes with Faults; zero injects nothing.
	Chaos ChaosSchedule
	// Mitigation is the router's fault-survival policy: per-sub-request
	// timeouts with bounded retry to a standby, hedged backups, degraded
	// joins, and the adaptive overload controls — retry/hedge budget and
	// per-node circuit breakers (zero = naive router).
	Mitigation Mitigation
	// Open switches the simulation to open-loop live-traffic mode: a
	// time-driven arrival stream (internal/traffic) with a synthetic user
	// population, admission control, and optional autoscaling, replacing
	// the closed-loop MeanArrivalMs/Queries load. See openloop.go.
	Open *OpenLoop
	// Seed drives arrivals, lookups, jitter, and every fault process;
	// every stream is derived statelessly from it via stats.SplitSeed.
	Seed uint64
}

// applyDefaults rejects what Validate rejects, then resolves the
// zero-means-default fields in place.
func (c *Config) applyDefaults() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.ServersPerNode == 0 {
		c.ServersPerNode = 1
	}
	c.Faults.applyDefaults()
	c.Mitigation.applyDefaults()
	if c.Open == nil {
		c.Queries, c.WarmupQueries = serve.Defaults(c.Queries, c.WarmupQueries)
		return nil
	}
	// Clone before resolving defaults: Simulate receives the Config by
	// value but Open is a pointer, and mutating the caller's struct would
	// corrupt reuse — in a replication sweep, an explicit-zero warmup
	// (-1 → 0) would silently turn into the 5% default on the next point.
	open := *c.Open
	if open.Autoscale != nil {
		as := *open.Autoscale
		open.Autoscale = &as
	}
	c.Open = &open
	c.Open.applyDefaults(c.Plan.Nodes)
	return nil
}

// Result summarizes one cluster run.
type Result struct {
	// P50, P95, P99, Mean are end-to-end query latencies in ms (network
	// hops + queueing + service + join + dense stages), post-warmup.
	P50, P95, P99, Mean float64
	// MeanFanout is the mean number of nodes a query touches.
	MeanFanout float64
	// LocalFraction is the fraction of lookups served from replicated
	// hot rows (short-circuiting the shard fan-out).
	LocalFraction float64
	// MaxQueueWaitMs is the worst sub-request queueing delay observed.
	MaxQueueWaitMs float64
	// Utilization is total node busy time over total node capacity.
	Utilization float64
	// Imbalance is the busiest node's service time over the mean — 1.0
	// is perfectly balanced.
	Imbalance float64
	// Availability is the fraction of post-warmup queries whose join was
	// complete — every sub-request answered (1.0 on a perfect fleet, and
	// whenever degraded joins are off).
	Availability float64
	// Completeness is the mean fraction of each post-warmup query's
	// lookups included in its joined result; degraded joins trade it for
	// bounded tail latency (1.0 otherwise).
	Completeness float64
	// HedgeRate is hedged backup copies launched per dispatched
	// sub-request (post-warmup).
	HedgeRate float64
	// RetriesPerQuery is the mean number of re-sent sub-request copies
	// per post-warmup query (timeout retries plus transport re-sends).
	RetriesPerQuery float64
	// RetryAmplification is total sub-request copies (primaries, hedges,
	// retries, transport re-sends) per scored query — the load-
	// multiplication factor a retry storm drives above 1× fan-out.
	RetryAmplification float64
	// BreakerOpenMinutes is total circuit-breaker-open time summed over
	// nodes, in node·minutes (0 without breakers).
	BreakerOpenMinutes float64
	// DomainAvailability is 1 minus the scheduled-domain-down fraction
	// of the run: the per-domain union of chaos outage windows over
	// domains × horizon (1.0 when no chaos schedule is active).
	DomainAvailability float64
	// ReplicaBytesPerNode and MaxShardBytes restate the plan's memory
	// accounting so latency/memory tradeoff curves come from one struct.
	ReplicaBytesPerNode int64
	MaxShardBytes       int64

	// The remaining fields are populated by open-loop runs only (Config.Open).

	// OfferedQPS is the post-warmup arrival rate actually drawn from the
	// traffic stream, admitted or not, in queries per second.
	OfferedQPS float64
	// Goodput is admitted post-warmup queries that completed within the
	// SLA, per second of post-warmup simulated time.
	Goodput float64
	// ShedRate is the fraction of post-warmup arrivals the admission
	// policy turned away.
	ShedRate float64
	// SLAViolationMinutes counts scaled minutes — 1/1440 of the diurnal
	// day, or of the run when no day is configured — in which at least one
	// admitted post-warmup query missed the SLA. Shed queries are charged
	// to ShedRate, not to violation minutes.
	SLAViolationMinutes float64
	// MeanActiveNodes is the time-weighted mean size of the active set
	// over the run (constant StartNodes without an autoscaler).
	MeanActiveNodes float64
	// ScaleUps and ScaleDowns count autoscaler provisioning and drain
	// decisions.
	ScaleUps, ScaleDowns int
	// RevisitRate is the fraction of post-warmup arrivals from revisiting
	// users (0 without a population).
	RevisitRate float64
	// TimeToRecoverMs measures recovery from the chaos schedule's last
	// window end (the fault-clear instant): the delay until the start of
	// the largest suffix of scaled-minute buckets in which goodput stays
	// within ε=0.1 of the offered load (per bucket, SLA-met admitted
	// queries ≥ 0.9 × arrivals; empty buckets are neutral). −1 means the
	// run never recovered — the metastable signature. 0 without a chaos
	// schedule.
	TimeToRecoverMs float64
	// PostFaultOfferedQPS and PostFaultGoodput restate OfferedQPS and
	// Goodput over the post-fault-clear window only (chaos runs; 0
	// otherwise) — the window the metastability assertions measure.
	PostFaultOfferedQPS float64
	PostFaultGoodput    float64
}

// recoverEps is TimeToRecoverMs's tolerance: a minute bucket counts as
// recovered when its goodput reaches (1−recoverEps) of its arrivals.
const recoverEps = 0.1

// subState is one sub-request's router-side bookkeeping: the shard fan-out
// unit whose copies (primary, hedge, retries) race to produce a response.
type subState struct {
	q         int
	dispatch  float64
	served    int     // lookups this sub-request covers
	svcMs     float64 // service time of one copy (pre-jitter, pre-slowdown)
	respBytes int64
	best      float64 // earliest response at the router so far
	retries   int     // timeout retries plus transport re-sends
	// Join bookkeeping (streamstats.go): the owning join record's slot
	// and the count of planned copies neither processed nor dropped.
	join       int
	copiesLeft int32
	// The sub's copies not yet queued: openRun.chain[chainAt:chainEnd],
	// in copyCmp order (both 0 once every copy is queued or dropped and
	// the block is freed).
	chainAt, chainEnd int32
	hedged            bool
}

// copyKind distinguishes how a sub-request copy got launched.
type copyKind uint8

const (
	copyPrimary copyKind = iota
	copyHedge
	copyRetry
)

// subCopy is one scheduled copy of a sub-request. Copies are processed
// globally in node-arrival order, so each node's queue sees submissions
// in true arrival order even though hedges and retries launch between
// later queries' dispatches. arrive folds in the transport's deterministic
// drop re-send delay, so every copy eventually reaches its node.
type subCopy struct {
	arrive  float64 // at the node: launch + drop re-sends + request hop
	launch  float64 // router-side launch deadline (condition reference)
	sub     int     // index into openRun.subs
	seq     int     // monotone creation order of the sub — the tie key
	node    int     // target node (owner, or a standby for hedge/retry)
	attempt int     // jitter/drop stream id: 0 primary, 1 hedge, ≥2 retries
	resends int     // transport re-sends folded into arrive
	kind    copyKind
	last    bool // its query's last copy in copyCmp order: always queued
}

// scored reports whether query q, arriving at arrive, counts in the
// summary: past both warmups — the closed loop's query count and the
// open loop's horizon, each zero in the other mode. The lookup counters,
// the join's samples, and the queue-wait high-water mark all gate on it.
func (r *openRun) scored(q int, arrive float64) bool {
	return q >= r.cfg.WarmupQueries && arrive >= r.o.WarmupMs
}

// schedule plans every copy one sub-request may launch — the primary at
// dispatch, an optional hedged backup to the shard's standby owner at
// dispatch+HedgeDelayMs, and timeout retries down the standby chain at
// dispatch+k·TimeoutMs — into the sub's chain, sorted in copyCmp order,
// and queues the first. The rest wait in the chain: queueNext pushes the
// next one only after its predecessor has been processed, and drops a
// conditional copy instead once a response has beaten its launch
// deadline, so the heap holds one copy per sub. Every copy's arrival is
// still computed here, with the same fault draws. The sub attaches to
// join record join (streamstats.go). home is the query's home node —
// the router's location for chaos partition severance (copies crossing
// a severed domain pair in transit are lost and re-sent at heal,
// composed after the transport's drop re-sends).
func (r *openRun) schedule(q, join, home, owner int, served int, svcMs float64, reqBytes, respBytes int64, dispatch float64) {
	n := r.chainStride
	at := r.chainBlock()
	sub := subState{
		q: q, dispatch: dispatch,
		served: served, svcMs: svcMs, respBytes: respBytes,
		best:       math.Inf(1),
		join:       join,
		copiesLeft: int32(n),
		chainAt:    at, chainEnd: at + int32(n),
	}
	r.sj.joins[join].subsLeft++
	seq := r.subSeq
	r.subSeq++
	var idx int
	if k := len(r.freeSubs); k > 0 {
		idx = r.freeSubs[k-1]
		r.freeSubs = r.freeSubs[:k-1]
		r.subs[idx] = sub
	} else {
		idx = len(r.subs)
		r.subs = append(r.subs, sub)
	}
	chain := r.chain[at : at+int32(n)]
	planned := 0
	transit := r.cfg.Net.LatencyMs + r.cfg.Net.TransferMs(reqBytes)
	add := func(kind copyKind, node, attempt int, launch float64) {
		shift, resends := r.faults.transit(q, home, node, attempt, launch, transit)
		c := subCopy{
			arrive:  launch + shift + transit,
			launch:  launch,
			sub:     idx,
			seq:     seq,
			node:    node,
			attempt: attempt,
			resends: resends,
			kind:    kind,
		}
		// Insertion sort: drop re-sends and severance can make a later
		// attempt arrive first.
		i := planned
		for ; i > 0 && copyCmp(c, chain[i-1]) < 0; i-- {
			chain[i] = chain[i-1]
		}
		chain[i] = c
		planned++
	}
	add(copyPrimary, owner, 0, dispatch)
	mit := &r.cfg.Mitigation
	if mit.HedgeDelayMs > 0 {
		add(copyHedge, (owner+1)%r.plan.Nodes, 1, dispatch+mit.HedgeDelayMs)
	}
	if mit.TimeoutMs > 0 {
		for k := 1; k <= mit.MaxRetries; k++ {
			add(copyRetry, (owner+k)%r.plan.Nodes, k+1, dispatch+float64(k)*mit.TimeoutMs)
		}
	}
	if n > 1 {
		if last := at + int32(n) - 1; r.queryLast < 0 || copyCmp(r.chain[last], r.chain[r.queryLast]) > 0 {
			r.queryLast = last
		}
	}
	r.queueNext(idx)
}

// copiesPerSub is how many copies schedule plans for every sub-request
// under m: the primary, the hedge, and the timeout retries.
func copiesPerSub(m *Mitigation) int {
	n := 1
	if m.HedgeDelayMs > 0 {
		n++
	}
	if m.TimeoutMs > 0 {
		n += m.MaxRetries
	}
	return n
}

// chainBlock returns the offset of a free chainStride-long block of
// r.chain.
func (r *openRun) chainBlock() int32 {
	if k := len(r.freeChains); k > 0 {
		at := r.freeChains[k-1]
		r.freeChains = r.freeChains[:k-1]
		return at
	}
	at := int32(len(r.chain))
	r.chain = slices.Grow(r.chain, r.chainStride)[:int(at)+r.chainStride]
	return at
}

// markQueryLast flags the last copy, in copyCmp order, of the subs
// scheduled since the previous call — one admitted query's — so
// queueNext never drops it. Popping that copy is what finalizes the
// query in the join, in the order the full schedule would, and
// the run's very last copy is one of these: its pop is the adaptive
// controller's final settle point (adapt.go). A query whose subs each
// plan one copy needs no flag: every copy is queued.
func (r *openRun) markQueryLast() {
	if r.queryLast >= 0 {
		r.chain[r.queryLast].last = true
		r.queryLast = -1
	}
}

// queueNext advances sub idx's chain once its queued copy has been
// processed (or, at schedule, to queue the first): it drops each next
// conditional copy whose launch deadline the best response so far has
// already met — best only falls, so the copy would be suppressed at pop
// anyway — counting it off copiesLeft, then pushes the first surviving
// copy. An exhausted chain returns its block to the free list.
func (r *openRun) queueNext(idx int) {
	sub := &r.subs[idx]
	for sub.chainAt < sub.chainEnd {
		c := &r.chain[sub.chainAt]
		sub.chainAt++
		if c.kind != copyPrimary && !c.last && sub.best <= c.launch {
			sub.copiesLeft--
			continue
		}
		r.copies.Push(*c)
		break
	}
	if sub.chainEnd > 0 && sub.chainAt == sub.chainEnd {
		r.freeChains = append(r.freeChains, sub.chainEnd-int32(r.chainStride))
		sub.chainAt, sub.chainEnd = 0, 0
	}
}

// serveCopy processes one popped copy at its node-arrival instant:
// conditional launch suppression, fault application, jitter, FCFS
// submission, and the router-side updates — the sub's best response,
// its retry and hedge counts, the queue-wait high-water mark, and the
// adaptive controller's observation. node is the effective target — the
// copy's planned node routed through the active set, which re-routes
// copies whose node was drained between scheduling and arrival. Callers
// must invoke it in copyCmp order, the global node-arrival order the
// FCFS queues require, and advance the sub's chain (queueNext) after
// it. A conditional copy launches only when no response beat its
// deadline; comparing against resolved copies is exact because an
// unresolved copy's arrival — and hence its response — is no earlier
// than the arrival being processed.
func (r *openRun) serveCopy(c *subCopy, node int) {
	ad := r.adapt
	if ad != nil {
		ad.advanceTo(c.arrive)
		if c.arrive > ad.lastT {
			ad.lastT = c.arrive
		}
	}
	sub := &r.subs[c.sub]
	if c.kind != copyPrimary && sub.best <= c.launch {
		return // a response arrived before this deadline; never sent
	}
	if ad != nil && c.kind != copyPrimary && !ad.allowCond(node) {
		// Budget exhausted or breaker open: the copy is never launched,
		// so it counts in no rate metric (HedgeRate, RetriesPerQuery) —
		// launched copies count, suppressed ones don't, consistently.
		return
	}
	switch c.kind {
	case copyHedge:
		sub.hedged = true
	case copyRetry:
		sub.retries++
	}
	sub.retries += c.resends
	cfg := &r.cfg
	svc := r.faults.apply(node, c.arrive, r.queues[node], sub.svcMs)
	if cfg.JitterFrac > 0 {
		var draw float64
		if c.attempt == 0 {
			j := stats.SeededRNG(stats.SplitSeed(cfg.Seed^0x717E2, uint64(sub.q*r.plan.Nodes+node)))
			draw = j.NormFloat64()
		} else {
			draw = retryJitter(cfg.Seed, sub.q, node, c.attempt, r.plan.Nodes)
		}
		svc *= serve.Jitter(cfg.JitterFrac, draw)
	}
	start, done := r.queues[node].Submit(c.arrive, svc)
	if r.scored(sub.q, sub.dispatch) {
		if w := start - c.arrive; w > r.maxWait {
			r.maxWait = w
		}
	}
	back := done + cfg.Net.LatencyMs + cfg.Net.TransferMs(sub.respBytes)
	if back < sub.best {
		sub.best = back
	}
	if ad != nil {
		ad.observe(node, c.kind, back-c.launch)
	}
}

// resolve is the router's join-side view of one sub-request after every
// copy has been processed: when the router stops waiting, and whether it
// got a response. With degraded joins the router abandons the sub-request
// at the retry budget's final deadline, dispatch+(MaxRetries+1)·TimeoutMs;
// otherwise it waits out the slowest copy.
func (r *openRun) resolve(sub *subState) (doneAt float64, ok bool) {
	mit := &r.cfg.Mitigation
	if mit.DegradedJoin {
		deadline := sub.dispatch + float64(mit.MaxRetries+1)*mit.TimeoutMs
		if sub.best > deadline {
			return deadline, false
		}
	}
	return sub.best, true
}

// poissonCount is the closed loop's arrival source: Queries Poisson
// arrivals at mean gap MeanArrivalMs on the 0xA221 stream, then +Inf.
type poissonCount struct {
	rng    stats.RNG
	meanMs float64
	now    float64
	left   int
}

func (p *poissonCount) Next() float64 {
	if p.left == 0 {
		return math.Inf(1)
	}
	p.left--
	p.now += p.rng.ExpFloat64() * p.meanMs
	return p.now
}

// Simulate runs the discrete-event cluster simulation: Poisson query
// arrivals at the router; each query is split by the plan into per-shard
// sub-lookups (replicated hot rows short-circuit to the query's home
// node), fanned out with a network hop each way, served FCFS per node,
// and joined on the slowest sub-request, after which the dense stages
// are charged at the router.
//
// With Faults configured, per-node slowdown episodes stretch service
// times, transient unavailability windows hold each node's queue shut,
// and sub-request copies are dropped in transit; Mitigation sets how the
// router survives them (timeouts, standby retries, hedged backups,
// degraded joins). A degraded join abandons unanswered shards at the
// retry budget's deadline, and the abandoned lookups are excluded from
// Completeness.
//
// Queries are dispatched in arrival order; the per-query lookup ranks,
// the arrival stream, each (query, node, attempt) jitter and drop draw,
// and each node's fault timeline are all pure functions of (Seed, index)
// via stats.SplitSeed, so the result is a pure function of the config.
//
// Every run is one event loop (openloop.go). Without Open, the closed
// loop is that loop over a fixed Poisson-count arrival source with
// everything open-loop switched off: no admission, no autoscaler, every
// node active. With Open set, a time-driven traffic stream replaces the
// count, and admission control, the user population, and the autoscaler
// come into play. The execution backend only sets how many goroutines
// pre-draw the arrivals (exec.go).
func Simulate(cfg Config) (Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return Result{}, err
	}
	r, err := newOpenRun(cfg)
	if err != nil {
		return Result{}, err
	}
	r.loop(execParts(cfg.Plan.Nodes))
	res := r.summary()
	r.release()
	return res, nil
}

// ReplicationPoint is one replication fraction's result.
type ReplicationPoint struct {
	Fraction float64
	Result   Result
}

// SweepReplication reruns the simulation across replication fractions,
// holding everything else (including the offered load and every random
// stream) fixed — the replication-memory vs tail-latency curve. The
// sweep rebuilds the plan per point from cfg.Plan's model, nodes, and
// policy.
func SweepReplication(cfg Config, fractions []float64) ([]ReplicationPoint, error) {
	if len(fractions) == 0 {
		return nil, fmt.Errorf("cluster: empty replication sweep")
	}
	if cfg.Plan == nil {
		return nil, fmt.Errorf("cluster: nil plan")
	}
	out := make([]ReplicationPoint, 0, len(fractions))
	for _, f := range fractions {
		plan, err := NewPlan(cfg.Plan.Model, cfg.Plan.Nodes, cfg.Plan.Policy, f, cfg.Seed)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Plan = plan
		r, err := Simulate(c)
		if err != nil {
			return nil, err
		}
		out = append(out, ReplicationPoint{Fraction: f, Result: r})
	}
	return out, nil
}
