package cluster

import (
	"fmt"
	"math"
	"slices"

	"dlrmsim/internal/check"
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

func (c *Config) applyDefaults() error {
	if c.Plan == nil {
		return fmt.Errorf("cluster: nil plan")
	}
	if c.SamplesPerQuery < 1 {
		return fmt.Errorf("cluster: %d samples per query", c.SamplesPerQuery)
	}
	if c.Timing.ColdLookupUs <= 0 {
		return fmt.Errorf("cluster: non-positive cold lookup cost %g", c.Timing.ColdLookupUs)
	}
	if c.ServersPerNode == 0 {
		c.ServersPerNode = 1
	}
	if c.ServersPerNode < 1 {
		return fmt.Errorf("cluster: %d servers per node", c.ServersPerNode)
	}
	if c.Open != nil {
		// Open-loop mode: load comes from the traffic stream, so the
		// closed-loop knobs must be left zero (a set knob is a config
		// confusion, not a silent no-op).
		if c.MeanArrivalMs != 0 || c.Queries != 0 || c.WarmupQueries != 0 {
			return fmt.Errorf("cluster: closed-loop load knobs (mean arrival %g, queries %d, warmup %d) are unused with an open-loop config",
				c.MeanArrivalMs, c.Queries, c.WarmupQueries)
		}
		if err := c.Faults.validate(); err != nil {
			return err
		}
		if err := c.Mitigation.validate(); err != nil {
			return err
		}
		if err := c.Chaos.validateFirst(c.Plan.Nodes); err != nil {
			return err
		}
		// Clone before resolving defaults: Simulate receives the Config by
		// value but Open is a pointer, and mutating the caller's struct
		// would corrupt reuse — in a replication sweep, an explicit-zero
		// warmup (-1 → 0) would silently turn into the 5% default on the
		// next point.
		open := *c.Open
		if open.Autoscale != nil {
			as := *open.Autoscale
			open.Autoscale = &as
		}
		c.Open = &open
		return c.Open.applyDefaults(c.Plan.Nodes)
	}
	if c.MeanArrivalMs <= 0 {
		return fmt.Errorf("cluster: non-positive mean arrival %g", c.MeanArrivalMs)
	}
	if c.Queries == 0 {
		c.Queries = 2000
	}
	if c.Queries < 1 {
		return fmt.Errorf("cluster: %d queries", c.Queries)
	}
	switch {
	case c.WarmupQueries == 0:
		c.WarmupQueries = c.Queries / 20
	case c.WarmupQueries == -1:
		c.WarmupQueries = 0
	case c.WarmupQueries < 0:
		return fmt.Errorf("cluster: warmup %d (use -1 for explicit zero)", c.WarmupQueries)
	}
	if c.WarmupQueries >= c.Queries {
		return fmt.Errorf("cluster: warmup %d >= queries %d", c.WarmupQueries, c.Queries)
	}
	if err := c.Faults.validate(); err != nil {
		return err
	}
	if err := c.Mitigation.validate(); err != nil {
		return err
	}
	return c.Chaos.validateFirst(c.Plan.Nodes)
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
	owner     int
	dispatch  float64
	served    int     // lookups this sub-request covers
	svcMs     float64 // service time of one copy (pre-jitter, pre-slowdown)
	respBytes int64
	best      float64 // earliest response at the router so far
	retries   int     // timeout retries plus transport re-sends
	hedged    bool
	// Stream-stats bookkeeping (openloop.go): the owning join record's
	// slot and the count of scheduled copies not yet processed. Unused
	// (zero) in the default batch-join modes.
	join       int
	copiesLeft int32
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
	sub     int     // index into simState.subs
	seq     int     // monotone creation order of the sub — the tie key
	node    int     // target node (owner, or a standby for hedge/retry)
	attempt int     // jitter/drop stream id: 0 primary, 1 hedge, ≥2 retries
	resends int     // transport re-sends folded into arrive
	kind    copyKind
}

// simState is one Simulate run's mutable state.
type simState struct {
	cfg      Config
	plan     *Plan
	queues   []*serve.Queue
	faults   *faultState
	chaos    *chaosState // materialized chaos schedule (nil = none)
	adapt    *adaptState // epoch-grid adaptive mitigation (nil = static)
	subs     []subState
	copies   []subCopy
	warmupMs float64 // open-loop warmup horizon (0 in closed-loop mode)
	maxWait  float64 // worst post-warmup queueing delay (satellite fix:
	// warmup queries' waits are excluded, matching serve.Simulate)

	// Stream-stats recycling (openloop.go). subSeq is the monotone
	// creation counter copies carry as their tie key; with recycle set,
	// finalized sub slots return to freeSubs and the live set stays at
	// the in-flight high-water mark instead of growing with the run.
	// Without recycling seq always equals the slot index, so the
	// (arrive, seq, attempt) order is bit-for-bit the historical
	// (arrive, sub, attempt) order.
	recycle  bool
	subSeq   int
	freeSubs []int

	// seqScratch is the sequential drivers' scratch for serveCopy.
	seqScratch *partScratch
}

// schedule plans every copy one sub-request may launch: the primary at
// dispatch, an optional hedged backup to the shard's standby owner at
// dispatch+HedgeDelayMs, and timeout retries down the standby chain at
// dispatch+k·TimeoutMs. Conditional copies are skipped at processing time
// when a response beat their launch deadline.
// schedule returns the sub's slot in s.subs so the open-loop
// stream-stats joiner can attach it to a join record. home is the
// query's home node — the router's location for chaos partition
// severance (copies crossing a severed domain pair in transit are lost
// and re-sent at heal, composed after the transport's drop re-sends).
func (s *simState) schedule(q, home, owner int, served int, svcMs float64, reqBytes, respBytes int64, dispatch float64) int {
	sub := subState{
		q: q, owner: owner, dispatch: dispatch,
		served: served, svcMs: svcMs, respBytes: respBytes,
		best: math.Inf(1),
	}
	seq := s.subSeq
	s.subSeq++
	var idx int
	if n := len(s.freeSubs); s.recycle && n > 0 {
		idx = s.freeSubs[n-1]
		s.freeSubs = s.freeSubs[:n-1]
		s.subs[idx] = sub
	} else {
		idx = len(s.subs)
		s.subs = append(s.subs, sub)
	}
	transit := s.cfg.Net.LatencyMs + s.cfg.Net.TransferMs(reqBytes)
	add := func(kind copyKind, node, attempt int, launch float64) {
		shift, resends := s.faults.dropShift(q, node, attempt, s.plan.Nodes)
		if s.chaos != nil {
			ps, pr := s.chaos.transitShift(home, node, launch+shift, transit)
			shift += ps
			resends += pr
		}
		s.copies = append(s.copies, subCopy{
			arrive:  launch + shift + transit,
			launch:  launch,
			sub:     idx,
			seq:     seq,
			node:    node,
			attempt: attempt,
			resends: resends,
			kind:    kind,
		})
		s.subs[idx].copiesLeft++
	}
	add(copyPrimary, owner, 0, dispatch)
	mit := &s.cfg.Mitigation
	if mit.HedgeDelayMs > 0 {
		add(copyHedge, (owner+1)%s.plan.Nodes, 1, dispatch+mit.HedgeDelayMs)
	}
	if mit.TimeoutMs > 0 {
		for k := 1; k <= mit.MaxRetries; k++ {
			add(copyRetry, (owner+k)%s.plan.Nodes, k+1, dispatch+float64(k)*mit.TimeoutMs)
		}
	}
	return idx
}

// run processes every scheduled copy in node-arrival order. A conditional
// copy launches only when no response beat its deadline; comparing against
// resolved copies is exact because an unresolved copy's arrival — and
// hence its response — is no earlier than the arrival being processed.
// attempt 0 keeps the legacy jitter stream, so fault-free runs are
// byte-identical to the pre-fault simulator.
func (s *simState) run() {
	// Every copy is known up front, so one sort establishes the order:
	// the copies are nearly sorted already (queries dispatch in arrival
	// order) and pdqsort exploits that. See DESIGN.md §9 for the
	// alternatives tried.
	slices.SortFunc(s.copies, copyCmp)
	for i := range s.copies {
		c := &s.copies[i]
		if check.Enabled {
			check.Assert(!math.IsNaN(c.arrive) && (i == 0 || copyCmp(s.copies[i-1], *c) < 0),
				"cluster: copy %d (arrive %g, seq %d, attempt %d) out of strict copy order", i, c.arrive, c.seq, c.attempt)
		}
		s.serveCopy(c, c.node)
	}
}

// serveCopy is the sequential drivers' per-copy step: serveCopyDeferred
// into the run's scratch, merged at once. Every deferred effect
// merges commutative-exactly (exec.go), so merging after each copy is
// the sequential arithmetic. node is the effective target — equal to
// c.node in closed-loop mode, but the open-loop simulator re-routes
// copies whose planned node was drained from the active set between
// scheduling and arrival. Callers must invoke it in copyCmp order, the
// global node-arrival order the FCFS queues require.
func (s *simState) serveCopy(c *subCopy, node int) {
	if s.adapt != nil {
		s.adapt.advanceTo(c.arrive)
	}
	s.serveCopyDeferred(c, node, s.seqScratch, nil)
	s.applyScratch(s.seqScratch)
}

// resolve is the router's join-side view of one sub-request after every
// copy has been processed: when the router stops waiting, and whether it
// got a response. With degraded joins the router abandons the sub-request
// at the retry budget's final deadline, dispatch+(MaxRetries+1)·TimeoutMs;
// otherwise it waits out the slowest copy.
func (s *simState) resolve(sub *subState) (doneAt float64, ok bool) {
	mit := &s.cfg.Mitigation
	if mit.DegradedJoin {
		deadline := sub.dispatch + float64(mit.MaxRetries+1)*mit.TimeoutMs
		if sub.best > deadline {
			return deadline, false
		}
	}
	return sub.best, true
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
// With Open set, the run switches to the open-loop live-traffic mode in
// openloop.go: a time-driven traffic stream replaces the closed-loop
// Poisson count, and admission control, the user population, and the
// autoscaler come into play.
func Simulate(cfg Config) (Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return Result{}, err
	}
	if cfg.Open != nil {
		return simulateOpen(cfg)
	}
	plan := cfg.Plan
	model := plan.Model
	a := acquireArena()
	st := &simState{
		cfg:    cfg,
		plan:   plan,
		queues: a.queueSet(plan.Nodes, cfg.ServersPerNode),
	}
	if cfg.Faults.Active() {
		st.faults = newFaultState(cfg.Faults, cfg.Seed, plan.Nodes)
	}
	if cfg.Chaos.Active() {
		st.chaos = a.chaosFor(&cfg.Chaos, plan.Nodes)
	}
	if cfg.Mitigation.adaptive() {
		st.adapt = a.adaptFor(&cfg.Mitigation, plan.Nodes)
	}
	// Seed the scheduling scratch: one sub-request per query is the floor
	// (the home node always serves), and the copy count per sub-request is
	// fixed by the mitigation policy. Growth beyond this is amortized.
	copiesPerSub := 1
	if cfg.Mitigation.HedgeDelayMs > 0 {
		copiesPerSub++
	}
	if cfg.Mitigation.TimeoutMs > 0 {
		copiesPerSub += cfg.Mitigation.MaxRetries
	}
	if cap(a.subs) < cfg.Queries {
		a.subs = make([]subState, 0, cfg.Queries)
	}
	if cap(a.copies) < cfg.Queries*copiesPerSub {
		a.copies = make([]subCopy, 0, cfg.Queries*copiesPerSub)
	}
	st.subs = a.subs[:0]
	st.copies = a.copies[:0]
	arrivals := stats.NewRNG(stats.SplitSeed(cfg.Seed^0xA221, 0))

	// Phase 1: draw each query's arrival and lookups, split them by the
	// plan, and schedule every sub-request copy the router might launch.
	cold := arenaSlice(&a.cold, plan.Nodes) // per-node shard-owned lookups of the current query (drawQuery zeroes)
	nows := arenaSlice(&a.nows, cfg.Queries)
	firstSub := arenaSlice(&a.firstSub, cfg.Queries+1)
	if cap(a.latencies) < cfg.Queries-cfg.WarmupQueries {
		a.latencies = make([]float64, 0, cfg.Queries-cfg.WarmupQueries)
	}
	latencies := a.latencies[:0]
	var now, simEnd float64
	var fanoutSum, hotLookups, totalLookups int
	var subCount, hedgeCount, retryCount, fullJoins int
	var completenessSum float64

	// The Zipf sampler's rejection-inversion constants depend only on
	// (rows, exponent), and construction consumes no generator draws, so
	// one sampler serves every (query, table) stream; each stream keeps
	// its own generator below, making the draws byte-identical to the
	// per-stream samplers this replaces.
	var zipf *stats.Zipf
	switch cfg.Hotness {
	case trace.OneItem, trace.RandomAccess:
	default:
		zipf = stats.NewSharedZipf(model.RowsPerTable, cfg.Hotness.ReferenceExponent())
	}

	// Under the parallel backend, phase 1's draws — the bulk of its cost
	// — pre-compute concurrently; the arrival stream and copy scheduling
	// below stay sequential (they are cheap and stateful).
	parts := execParts(plan.Nodes)
	useParallel := parts > 1 && st.parallelizable()
	var preHot, preCold []int
	draws := cfg.SamplesPerQuery * model.LookupsPerSample
	if useParallel {
		preHot = arenaSlice(&a.preHot, cfg.Queries)
		preCold = arenaSlice(&a.preCold, cfg.Queries*plan.Nodes)
		st.predrawQueries(zipf, draws, cfg.Queries, parts, preHot, preCold)
	}
	for q := 0; q < cfg.Queries; q++ {
		now += arrivals.ExpFloat64() * cfg.MeanArrivalMs
		nows[q] = now
		firstSub[q] = len(st.subs)
		home := q % plan.Nodes
		var hot int
		coldq := cold
		if preCold != nil {
			hot = preHot[q]
			coldq = preCold[q*plan.Nodes : (q+1)*plan.Nodes]
		} else {
			hot = st.drawQuery(zipf, draws, q, coldq)
		}

		// Fan out: one sub-request per involved node, with a network hop
		// and message transfer each way.
		for n := 0; n < plan.Nodes; n++ {
			served := coldq[n]
			svcUs := cfg.Timing.SubRequestUs + cfg.Timing.ColdLookupUs*float64(coldq[n])
			if n == home && hot > 0 {
				served += hot
				svcUs += cfg.Timing.HotLookupUs * float64(hot)
			}
			if served == 0 {
				continue
			}
			reqBytes := int64(4*served) + wireHeaderBytes
			// The response carries partial pooled sums: one EmbDim vector
			// per (sample, table) slice served, fp32 on the wire.
			pooled := (served + model.LookupsPerSample - 1) / model.LookupsPerSample
			respBytes := int64(pooled)*int64(model.EmbDim)*4 + wireHeaderBytes
			st.schedule(q, home, n, served, svcUs/1e3, reqBytes, respBytes, now)
		}
		if q >= cfg.WarmupQueries {
			hotLookups += hot
			totalLookups += hot
			for _, c := range coldq {
				totalLookups += c
			}
		}
	}
	firstSub[cfg.Queries] = len(st.subs)

	// Phase 2: serve every copy in node-arrival order, FCFS per node —
	// partitioned across conservative windows under the parallel backend,
	// one goroutine otherwise.
	if useParallel {
		st.runParallel(parts, a.partScratchSet(parts))
	} else {
		st.seqScratch = &a.partScratchSet(1)[0]
		st.run()
	}

	// Phase 3: join each query on its slowest surviving sub-request (or,
	// degraded, on the deadline the router abandons the slowest shard at),
	// then charge the dense stages at the router.
	for q := 0; q < cfg.Queries; q++ {
		joined := nows[q]
		queryLookups, servedLookups := 0, 0
		hedges, retries := 0, 0
		complete := true
		for i := firstSub[q]; i < firstSub[q+1]; i++ {
			sub := &st.subs[i]
			doneAt, ok := st.resolve(sub)
			if doneAt > joined {
				joined = doneAt
			}
			queryLookups += sub.served
			retries += sub.retries
			if sub.hedged {
				hedges++
			}
			if ok {
				servedLookups += sub.served
			} else {
				complete = false
			}
		}
		finish := joined + cfg.Timing.DenseMs
		if finish > simEnd {
			simEnd = finish
		}
		if q < cfg.WarmupQueries {
			continue
		}
		latencies = append(latencies, finish-nows[q])
		fanoutSum += firstSub[q+1] - firstSub[q]
		subCount += firstSub[q+1] - firstSub[q]
		hedgeCount += hedges
		retryCount += retries
		if complete {
			fullJoins++
		}
		if queryLookups > 0 {
			completenessSum += float64(servedLookups) / float64(queryLookups)
		} else {
			completenessSum++
		}
	}

	pct := stats.Percentiles(latencies, 0.50, 0.95, 0.99)
	res := Result{
		P50:                 pct[0],
		P95:                 pct[1],
		P99:                 pct[2],
		Mean:                stats.Mean(latencies),
		MeanFanout:          float64(fanoutSum) / float64(len(latencies)),
		MaxQueueWaitMs:      st.maxWait,
		Availability:        float64(fullJoins) / float64(len(latencies)),
		Completeness:        completenessSum / float64(len(latencies)),
		RetriesPerQuery:     float64(retryCount) / float64(len(latencies)),
		ReplicaBytesPerNode: plan.ReplicaBytesPerNode(),
		MaxShardBytes:       plan.MaxShardBytes(),
	}
	res.RetryAmplification = float64(subCount+hedgeCount+retryCount) / float64(len(latencies))
	if st.adapt != nil {
		res.BreakerOpenMinutes = st.adapt.finalize() / 60000
	}
	res.DomainAvailability = 1
	if st.chaos != nil && simEnd > 0 {
		res.DomainAvailability = 1 - st.chaos.outageMs(simEnd)/(float64(st.chaos.domains)*simEnd)
	}
	if subCount > 0 {
		res.HedgeRate = float64(hedgeCount) / float64(subCount)
	}
	if totalLookups > 0 {
		res.LocalFraction = float64(hotLookups) / float64(totalLookups)
	}
	var busySum, busyMax float64
	for _, qu := range st.queues {
		b := qu.BusyMs()
		busySum += b
		if b > busyMax {
			busyMax = b
		}
	}
	if simEnd > 0 {
		res.Utilization = busySum / (simEnd * float64(plan.Nodes*cfg.ServersPerNode))
	}
	if busySum > 0 {
		res.Imbalance = busyMax / (busySum / float64(plan.Nodes))
	}
	if check.Enabled {
		check.Assert(check.Finite(res.P50) && check.Finite(res.P99) && check.Finite(res.Mean) && check.Finite(res.Utilization),
			"cluster: non-finite latency summary (p50 %g, p99 %g, mean %g, util %g)",
			res.P50, res.P99, res.Mean, res.Utilization)
	}
	a.subs, a.copies, a.latencies = st.subs, st.copies, latencies
	a.release()
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
