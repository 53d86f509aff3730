package cluster

// The open-loop live-traffic tier (DESIGN.md §11): production serving is
// open-loop — users do not wait for each other's responses, so offered
// load is a function of time, not of the system's progress. This file
// runs the cluster simulation against an internal/traffic arrival stream
// (Poisson/MMPP with diurnal ramps and flash crowds) and a synthetic user
// population, adds router-side admission control that sheds queries when
// the backlog of the involved nodes exceeds an SLA budget, and an
// autoscaler that grows and drains the active node set mid-run.
//
// Admission decisions must observe queue state at arrival time, so the
// run is a single event loop over three deterministic event sources —
// autoscaler control ticks, arrivals, and a heap of queued sub-request
// copies in copyCmp total order. At equal instants ticks precede
// arrivals precede copies; every source is a pure function of (Seed,
// index) via stats.SplitSeed, so results keep the registry-wide
// byte-identical-at-any-worker-count determinism property.
//
// This loop is also the closed-loop driver: a closed run is an open run
// whose arrivals come from a fixed Poisson count (sim.go's poissonCount)
// with admission, the autoscaler, and stream-stats off and every node
// active. Nothing then reads queue state at an arrival, so interleaving
// arrivals with copies cannot perturb the copy order, and the heap
// serves its copies in exactly the (arrive, seq, attempt) order a
// one-shot sort of the full schedule would; the copies it never sees
// are the beaten hedges and retries a sorted schedule would skip.
//
// Autoscaling never re-shards: the plan stays fixed and the autoscaler
// moves nodes in and out of an *active set*. Sub-requests route to the
// first active node in the shard's standby chain (the same chain retries
// walk), a drain is pure route-away — in-flight work completes, new work
// skips the node — and a provisioning node reuses the fault model's
// outage machinery (serve.Queue.Unavailable) to hold its servers shut
// until it is warm.

import (
	"fmt"
	"math"
	"sync"

	"dlrmsim/internal/check"
	"dlrmsim/internal/serve"
	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// seed salts for the open-loop tier's derived streams.
const (
	saltOpenArrivals uint64 = 0x09E4A1
	saltOpenUsers    uint64 = 0x09E4A2
)

// AdmissionPolicy selects the router's load-shedding behavior.
type AdmissionPolicy int

const (
	// AdmitAll never sheds: every arrival is dispatched however deep the
	// queues are (the no-shed baseline).
	AdmitAll AdmissionPolicy = iota
	// ShedOverBudget sheds an arrival when the worst backlog over the
	// nodes it would fan out to exceeds Admission.QueueBudgetMs. A
	// backlog exactly at the budget is admitted.
	ShedOverBudget
)

// String returns the policy's CLI spelling.
func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitAll:
		return "none"
	case ShedOverBudget:
		return "shed"
	default:
		return "invalid"
	}
}

// ParseAdmissionPolicy resolves a policy from its CLI spelling.
func ParseAdmissionPolicy(name string) (AdmissionPolicy, error) {
	switch name {
	case "none":
		return AdmitAll, nil
	case "shed":
		return ShedOverBudget, nil
	}
	return 0, fmt.Errorf("cluster: unknown admission policy %q", name)
}

// Admission is the router's load-shedding configuration. The zero value
// admits everything.
type Admission struct {
	// Policy selects the shedding rule.
	Policy AdmissionPolicy
	// QueueBudgetMs is the per-node backlog budget ShedOverBudget
	// enforces; queries whose involved nodes are all at or under it are
	// admitted.
	QueueBudgetMs float64
}

// shed decides one arrival's fate from the worst backlog (ms) over the
// nodes it would fan out to. The boundary is strict: a backlog exactly at
// the budget is admitted.
func (a Admission) shed(worstBacklogMs float64) bool {
	return a.Policy == ShedOverBudget && worstBacklogMs > a.QueueBudgetMs
}

func (a Admission) validateErrs() []error {
	var errs []error
	switch a.Policy {
	case AdmitAll:
		if a.QueueBudgetMs != 0 {
			errs = append(errs, fmt.Errorf("cluster: queue budget %g ms needs the shed admission policy", a.QueueBudgetMs))
		}
	case ShedOverBudget:
		if !check.Positive(a.QueueBudgetMs) {
			errs = append(errs, fmt.Errorf("cluster: shed admission needs a finite positive queue budget (got %g ms)", a.QueueBudgetMs))
		}
	default:
		errs = append(errs, fmt.Errorf("cluster: invalid admission policy %d", a.Policy))
	}
	return errs
}

// Autoscaler grows and drains the active node set on a fixed control
// cadence, driven by the mean backlog over active nodes.
type Autoscaler struct {
	// IntervalMs is the control-loop tick period.
	IntervalMs float64
	// UpBacklogMs triggers a scale-up when the mean active-node backlog
	// exceeds it at a tick.
	UpBacklogMs float64
	// DownBacklogMs triggers a drain when the mean backlog falls below it
	// (must be below UpBacklogMs to avoid flapping).
	DownBacklogMs float64
	// ProvisionMs is the delay before a scaled-up node starts serving —
	// its queue is held shut with the outage machinery until then, and it
	// joins the active set at the first tick past readiness. At most one
	// node provisions at a time.
	ProvisionMs float64
	// MinNodes floors the active set (0 means 1).
	MinNodes int
	// MaxNodes caps the active set (0 means the plan's node count).
	MaxNodes int
}

// validateErrs reports every violation in the autoscaler. nodes 0 (no
// plan to check against) skips the node-range checks.
func (a *Autoscaler) validateErrs(nodes int) []error {
	var errs []error
	if !check.Positive(a.IntervalMs) {
		errs = append(errs, fmt.Errorf("cluster: autoscaler needs a finite positive control interval (got %g ms)", a.IntervalMs))
	}
	if !check.Positive(a.UpBacklogMs) {
		errs = append(errs, fmt.Errorf("cluster: autoscaler needs a finite positive scale-up backlog threshold (got %g ms)", a.UpBacklogMs))
	}
	if !check.NonNeg(a.DownBacklogMs) {
		errs = append(errs, fmt.Errorf("cluster: scale-down threshold %g ms (need finite >= 0)", a.DownBacklogMs))
	}
	if a.UpBacklogMs > 0 && a.DownBacklogMs >= a.UpBacklogMs {
		errs = append(errs, fmt.Errorf("cluster: scale-down threshold %g ms must sit below scale-up threshold %g ms",
			a.DownBacklogMs, a.UpBacklogMs))
	}
	if !check.NonNeg(a.ProvisionMs) {
		errs = append(errs, fmt.Errorf("cluster: provisioning delay %g ms (need finite >= 0)", a.ProvisionMs))
	}
	if a.MinNodes < 0 || (nodes > 0 && a.MinNodes > nodes) {
		errs = append(errs, fmt.Errorf("cluster: autoscaler floor %d outside [0,%d]", a.MinNodes, nodes))
	}
	if a.MaxNodes < 0 || (nodes > 0 && a.MaxNodes > nodes) {
		errs = append(errs, fmt.Errorf("cluster: autoscaler cap %d outside [0,%d]", a.MaxNodes, nodes))
	}
	minN, maxN := a.MinNodes, a.MaxNodes
	if minN == 0 {
		minN = 1
	}
	if maxN == 0 {
		maxN = nodes
	}
	// An unset cap resolves to the plan's node count, unknown at nodes 0.
	if minN > maxN && (nodes > 0 || a.MaxNodes != 0) {
		errs = append(errs, fmt.Errorf("cluster: autoscaler floor %d above cap %d", minN, maxN))
	}
	return errs
}

// OpenLoop configures the live-traffic mode of Simulate.
type OpenLoop struct {
	// Arrivals is the traffic stream. Its Seed must be left zero — the
	// stream seed is derived from the cluster Config.Seed so one seed
	// still determines the whole run.
	Arrivals traffic.Config
	// Population, when set, attributes arrivals to synthetic users whose
	// revisits layer per-user embedding locality on the hotness class
	// (its Seed must likewise be left zero). Without it every arrival is
	// a fresh anonymous query round-robined across home nodes.
	Population *traffic.Population
	// DurationMs is the simulated horizon; arrivals stop there and
	// in-flight queries run to completion.
	DurationMs float64
	// WarmupMs excludes early arrivals from every metric (the queues
	// still serve them, so steady state is measured, not ramp-up). 0
	// means unset (default 5% of DurationMs); -1 requests explicitly
	// zero warmup.
	WarmupMs float64
	// SLAMs is the per-query latency target Goodput and
	// SLAViolationMinutes are measured against.
	SLAMs float64
	// Admission is the router's load-shedding rule.
	Admission Admission
	// Autoscale, when set, runs the control loop over the active set.
	Autoscale *Autoscaler
	// StartNodes is the initial active-set size (0 means all plan
	// nodes). Inactive nodes hold their shards but serve nothing until
	// the autoscaler brings them in; their work routes down the standby
	// chain, so a deliberately zero-capacity owner is expressible.
	StartNodes int
	// StreamStats sends each scored query's latency to a fixed-memory
	// stats.QuantileSketch instead of keeping it (streamstats.go): no
	// per-query state at all, counters exact, percentiles within the
	// sketch's error bound (~0.8%). Off by default — the default mode
	// keeps 16 bytes per scored query for exact nearest-rank
	// percentiles, the golden baseline. Both modes join each query at
	// its last copy, so live join state is bounded by the in-flight
	// high-water mark either way.
	StreamStats bool
}

// validateErrs reports every violation without mutating o, accepting the
// zero-means-default fields in either pre- or post-default form. nodes 0
// (no plan to check against) skips the node-range checks.
func (o *OpenLoop) validateErrs(nodes int) []error {
	var errs []error
	ar := o.Arrivals
	if ar.Seed != 0 {
		errs = append(errs, fmt.Errorf("cluster: traffic seed is derived from the cluster seed; leave it zero"))
		ar.Seed = 0
	}
	if err := ar.Validate(); err != nil {
		errs = append(errs, err)
	}
	if o.Population != nil {
		pop := *o.Population
		if pop.Seed != 0 {
			errs = append(errs, fmt.Errorf("cluster: population seed is derived from the cluster seed; leave it zero"))
			pop.Seed = 0
		}
		if err := pop.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if !check.Positive(o.DurationMs) {
		errs = append(errs, fmt.Errorf("cluster: open-loop runs need a finite positive duration (got %g ms)", o.DurationMs))
	}
	if !check.NonNeg(o.WarmupMs) && o.WarmupMs != -1 {
		errs = append(errs, fmt.Errorf("cluster: warmup %g ms (need finite >= 0; use -1 for explicit zero)", o.WarmupMs))
	}
	if w := serve.Warmup(o.DurationMs, o.WarmupMs); check.Positive(o.DurationMs) && w >= o.DurationMs {
		errs = append(errs, fmt.Errorf("cluster: warmup %g ms >= duration %g ms", w, o.DurationMs))
	}
	if !check.Positive(o.SLAMs) {
		errs = append(errs, fmt.Errorf("cluster: open-loop runs need a finite positive SLA target (got %g ms)", o.SLAMs))
	}
	if o.StartNodes < 0 || (nodes > 0 && o.StartNodes > nodes) {
		errs = append(errs, fmt.Errorf("cluster: %d start nodes outside [0,%d]", o.StartNodes, nodes))
	}
	errs = append(errs, o.Admission.validateErrs()...)
	if o.Autoscale != nil {
		errs = append(errs, o.Autoscale.validateErrs(nodes)...)
		minN := o.Autoscale.MinNodes
		if minN == 0 {
			minN = 1
		}
		start := o.StartNodes
		if start == 0 {
			start = nodes
		}
		// An unset start resolves to the plan's node count, unknown at
		// nodes 0.
		if start < minN && (nodes > 0 || o.StartNodes != 0) {
			errs = append(errs, fmt.Errorf("cluster: %d start nodes below autoscaler floor %d", start, minN))
		}
	}
	return errs
}

// applyDefaults resolves the zero-means-default fields of a validated
// open loop in place.
func (o *OpenLoop) applyDefaults(nodes int) {
	o.WarmupMs = serve.Warmup(o.DurationMs, o.WarmupMs)
	if o.StartNodes == 0 {
		o.StartNodes = nodes
	}
	if o.Autoscale != nil {
		if o.Autoscale.MinNodes == 0 {
			o.Autoscale.MinNodes = 1
		}
		if o.Autoscale.MaxNodes == 0 {
			o.Autoscale.MaxNodes = nodes
		}
	}
}

// openJoinRec is one admitted query's join state (streamstats.go), open
// from its admission to its last copy.
type openJoinRec struct {
	arrive        float64
	joined        float64 // max sub resolution time so far
	subsLeft      int     // subs still in flight
	sample        int     // exact mode: the scored query's slot in the join's samples
	queryLookups  int
	servedLookups int
	hedges        int
	retries       int
	fanout        int
	complete      bool
	post          bool
}

// addSub folds one resolved sub-request into the query's join: the
// query joins on its slowest surviving sub (or, degraded, on the
// deadline the router abandons the slowest shard at).
func (rec *openJoinRec) addSub(r *openRun, sub *subState) {
	doneAt, ok := r.resolve(sub)
	if doneAt > rec.joined {
		rec.joined = doneAt
	}
	rec.queryLookups += sub.served
	rec.retries += sub.retries
	if sub.hedged {
		rec.hedges++
	}
	if ok {
		rec.servedLookups += sub.served
	} else {
		rec.complete = false
	}
	rec.fanout++
}

// joinTally is the per-query fold behind both summary modes: the
// router-side counters at each arrival, and each joined query's SLA,
// fanout and retry accounting at finish, in completion order. Every
// field but the two float sums is an integer count or a max, which no
// order can change; the sums are added where the mode sends a scored
// query (streamJoin.finalize, or the exact mode's summary).
type joinTally struct {
	slaMs, denseMs, minuteMs float64
	violated                 map[int]bool // minute buckets with an out-of-SLA query

	postArr, postShed, postRevisit, good int
	subCount, hedges, retries, fullJoins int
	nLat                                 int
	latSum, completenessSum              float64
	simEnd                               float64 // last finish, scored or not

	// Recovery observability (chaos.go): minute buckets of post-warmup
	// arrivals and in-SLA completions, and the post-fault (arrive >=
	// pfThreshMs) offered/good counters. Empty/zero without a chaos
	// schedule or in a closed run.
	ttrArr, ttrGood []int
	pfThreshMs      float64
	pfArr, pfGood   int
}

// arrival counts one arrival's router-side outcome; post marks it
// scored (past the warmup).
func (t *joinTally) arrival(now float64, post, admitted, revisit bool) {
	if !post {
		return
	}
	t.postArr++
	if revisit {
		t.postRevisit++
	}
	if !admitted {
		t.postShed++
	}
	if len(t.ttrArr) > 0 {
		t.ttrArr[int(now/t.minuteMs)]++
		if now >= t.pfThreshMs {
			t.pfArr++
		}
	}
}

// finish folds one fully joined query — it pays the dense stages after
// its join — and returns its latency, the share of its lookups the join
// included, and whether it is scored.
func (t *joinTally) finish(rec *openJoinRec) (lat, share float64, scored bool) {
	finish := rec.joined + t.denseMs
	if finish > t.simEnd {
		t.simEnd = finish
	}
	if !rec.post {
		return 0, 0, false
	}
	lat = finish - rec.arrive
	t.nLat++
	if lat <= t.slaMs {
		t.good++
		if len(t.ttrArr) > 0 {
			t.ttrGood[int(rec.arrive/t.minuteMs)]++
			if rec.arrive >= t.pfThreshMs {
				t.pfGood++
			}
		}
	} else {
		t.violated[int(rec.arrive/t.minuteMs)] = true
	}
	t.subCount += rec.fanout
	t.hedges += rec.hedges
	t.retries += rec.retries
	if rec.complete {
		t.fullJoins++
	}
	share = 1
	if rec.queryLookups > 0 {
		share = float64(rec.servedLookups) / float64(rec.queryLookups)
	}
	return lat, share, true
}

// openRun is one simulation's mutable state, open or closed loop. A
// finished run is recycled whole (arena.go): newOpenRun rebuilds it
// keeping only its buffers' capacity.
type openRun struct {
	cfg    Config
	o      *OpenLoop // a closed run gets a stand-in with no horizon and no SLA
	plan   *Plan
	queues []*serve.Queue
	faults *faultState // &faultSt when the config injects faults (nil = none)
	adapt  *adaptState // &adaptSt under adaptive mitigation (nil = static)
	copies copyHeap    // queued copies, drained in copyCmp order
	// maxWait is the worst scored queueing delay; warmup queries' waits
	// are excluded, matching serve.Simulate.
	maxWait float64

	// Sub-request slots (sim.go's schedule): a sub's slot returns to
	// freeSubs once its last copy is processed, so the live set stays at
	// the in-flight high-water mark. subSeq is the monotone creation
	// counter copies carry as their tie key; the freelist never reuses
	// it, so the copy order does not depend on slot reuse.
	subs     []subState
	freeSubs []int
	subSeq   int

	// Copy chains (schedule): each sub's planned copies wait in one
	// chainStride-long block of chain until queueNext moves them onto
	// the heap; freeChains recycles exhausted blocks. queryLast is the
	// chain offset of the current arrival's last copy so far (-1 none).
	chain       []subCopy
	freeChains  []int32
	chainStride int
	queryLast   int32

	arrivals interface{ Next() float64 } // traffic stream, or the closed loop's poissonCount
	visitors *traffic.Visitors           // loop goroutine only (exec.go)
	pop      traffic.Population
	ranks    trace.Ranks

	// The population's profile knobs, copied from visitors so that
	// drawArrival reads only state fixed for the run. profSize > 0
	// exactly when the run has a population.
	affinity float64
	profSize int

	// The active set. route walks a shard's standby chain to the first
	// active node — the same chain retries use, so any node can serve
	// any shard's rows (standby replicas, as in the fault model).
	active      []bool
	activeCount int

	// Time-weighted active-set accounting; the set only changes at ticks.
	nodeMsSum  float64
	lastChange float64

	as           *Autoscaler
	nextTick     float64
	pendingNode  int
	pendingReady float64
	scaleUps     int
	scaleDowns   int

	tally joinTally
	sj    streamJoin

	eff   []int // arrival-scratch: cold work per effective node
	draws int

	hotLookups, totalLookups int

	nextArr float64
	q       int

	// Pre-draw blocks (exec.go): arrivals whose lookup draws were
	// computed ahead, as pure functions of (Seed, q, user, visit). The
	// loop serves blocks[front] from ringHead on; under Parallel the
	// helpers draw the other block meanwhile (backPending). jobs hands
	// blocks to the parts−1 helpers; helpers counts the live ones.
	blocks      [2]predrawBlock
	front       int
	ringHead    int
	backPending bool
	parts       int
	jobs        chan *predrawBlock
	helpers     sync.WaitGroup

	// Storage faults, adapt, o and arrivals point into: the fault and
	// adaptive state, held by value so their per-node slices recycle
	// with the run, and a closed run's stand-ins.
	faultSt        faultState
	adaptSt        adaptState
	closedLoop     OpenLoop
	closedArrivals poissonCount
}

// newOpenRun builds the run state on a recycled run. cfg has been
// default-applied.
func newOpenRun(cfg Config) (*openRun, error) {
	plan := cfg.Plan
	model := plan.Model
	r := acquireRun()
	*r = openRun{
		cfg:         cfg,
		o:           cfg.Open,
		plan:        plan,
		nextTick:    math.Inf(1),
		pendingNode: -1,
		draws:       cfg.SamplesPerQuery * model.LookupsPerSample,
		chainStride: copiesPerSub(&cfg.Mitigation),
		queryLast:   -1,

		// The recycled buffers, kept for their capacity: each is emptied
		// here or rewound below.
		queues:     resetQueues(r.queues, plan.Nodes, cfg.ServersPerNode),
		copies:     r.copies,
		subs:       r.subs[:0],
		freeSubs:   r.freeSubs[:0],
		chain:      r.chain[:0],
		freeChains: r.freeChains[:0],
		active:     arenaSlice(&r.active, plan.Nodes),
		tally:      joinTally{violated: r.tally.violated, ttrArr: r.tally.ttrArr[:0], ttrGood: r.tally.ttrGood[:0]},
		sj: streamJoin{
			joins: r.sj.joins[:0], freeJoins: r.sj.freeJoins[:0],
			sketch: r.sj.sketch, lats: r.sj.lats[:0], shares: r.sj.shares[:0],
		},
		eff: arenaSlice(&r.eff, plan.Nodes),
		blocks: [2]predrawBlock{
			{ring: r.blocks[0].ring, cold: r.blocks[0].cold},
			{ring: r.blocks[1].ring, cold: r.blocks[1].cold},
		},
		jobs:    r.jobs,
		faultSt: r.faultSt,
		adaptSt: r.adaptSt,
	}
	r.copies.reset()
	if r.o == nil {
		// Closed loop: a finite horizon past every arrival (so the +Inf
		// no-tick sentinel stays beyond it), and an infinite SLA that
		// leaves no violation minute.
		r.closedLoop = OpenLoop{DurationMs: math.MaxFloat64, SLAMs: math.Inf(1), StartNodes: plan.Nodes}
		r.closedArrivals = poissonCount{
			rng:    stats.SeededRNG(stats.SplitSeed(cfg.Seed^0xA221, 0)),
			meanMs: cfg.MeanArrivalMs,
			left:   cfg.Queries,
		}
		r.o, r.arrivals = &r.closedLoop, &r.closedArrivals
	} else {
		ar := r.o.Arrivals
		ar.Seed = stats.SplitSeed(cfg.Seed^saltOpenArrivals, 0)
		stream, err := traffic.NewStream(ar)
		if err != nil {
			return nil, err
		}
		r.arrivals = stream
		if r.o.Population != nil {
			r.pop = *r.o.Population
			r.pop.Seed = stats.SplitSeed(cfg.Seed^saltOpenUsers, 0)
			if r.visitors, err = traffic.NewVisitors(r.pop); err != nil {
				return nil, err
			}
			r.affinity, r.profSize = r.visitors.Affinity(), r.visitors.ProfileSize()
		}
	}
	o := r.o

	if cfg.Faults.Active() || cfg.Chaos.Active() {
		r.faultSt.init(&r.cfg, plan.Nodes)
		r.faults = &r.faultSt
	}
	if cfg.Mitigation.adaptive() {
		r.adaptSt.init(&r.cfg.Mitigation, plan.Nodes)
		r.adapt = &r.adaptSt
	}
	for n := range r.active {
		r.active[n] = n < o.StartNodes
	}
	r.activeCount = o.StartNodes

	r.ranks = cfg.Hotness.Ranks(model.RowsPerTable)

	// SLA-violation minutes bucketize on the configured day when the
	// stream defines one, else on the run horizon.
	t := &r.tally
	t.slaMs, t.denseMs, t.minuteMs = o.SLAMs, cfg.Timing.DenseMs, o.DurationMs/1440
	if o.Arrivals.DayMs > 0 {
		t.minuteMs = o.Arrivals.DayMs / 1440
	}
	if t.violated == nil {
		t.violated = make(map[int]bool)
	}
	clear(t.violated)
	if o.StreamStats {
		if r.sj.sketch == nil {
			r.sj.sketch = new(stats.QuantileSketch)
		}
		r.sj.sketch.Reset()
		r.sj.stream = true
	}
	if r.as = o.Autoscale; r.as != nil {
		r.nextTick = r.as.IntervalMs
	}
	if cfg.Chaos.Active() && cfg.Open != nil {
		n := int(o.DurationMs/t.minuteMs) + 1
		clear(arenaSlice(&t.ttrArr, n))
		clear(arenaSlice(&t.ttrGood, n))
		clearT := math.Min(r.faults.clearMs, o.DurationMs)
		t.pfThreshMs = math.Max(clearT, o.WarmupMs)
	}
	return r, nil
}

func (r *openRun) route(n int) int {
	for k := 0; k < r.plan.Nodes; k++ {
		if t := (n + k) % r.plan.Nodes; r.active[t] {
			return t
		}
	}
	return n // unreachable: the active set never empties
}

func (r *openRun) backlog(n int, now float64) float64 {
	if b := r.queues[n].EarliestFree() - now; b > 0 {
		return b
	}
	return 0
}

func (r *openRun) noteActive(now float64) {
	r.nodeMsSum += float64(r.activeCount) * (now - r.lastChange)
	r.lastChange = now
}

// tick runs one autoscaler control tick. Activation first, so a node
// ready exactly at this tick serves the decisions below.
func (r *openRun) tick(now float64) {
	as := r.as
	if r.pendingNode >= 0 && now >= r.pendingReady {
		r.noteActive(now)
		r.active[r.pendingNode] = true
		r.activeCount++
		r.pendingNode = -1
	}
	var sum float64
	for n := range r.active {
		if r.active[n] {
			sum += r.backlog(n, now)
		}
	}
	mean := sum / float64(r.activeCount)
	if mean > as.UpBacklogMs && r.pendingNode < 0 && r.activeCount < as.MaxNodes {
		// Provision the lowest-index inactive node; its queue is
		// held shut with the outage machinery until it is warm.
		for n := range r.active {
			if !r.active[n] {
				r.pendingNode = n
				break
			}
		}
		r.pendingReady = now + as.ProvisionMs
		r.queues[r.pendingNode].Unavailable(r.pendingReady)
		r.scaleUps++
	} else if mean < as.DownBacklogMs && r.activeCount > as.MinNodes {
		// Drain the highest-index active node: pure route-away —
		// in-flight work completes, new work skips it.
		for n := r.plan.Nodes - 1; n >= 0; n-- {
			if r.active[n] {
				r.noteActive(now)
				r.active[n] = false
				r.activeCount--
				r.scaleDowns++
				break
			}
		}
	}
	r.nextTick += as.IntervalMs
}

// drawArrival draws arrival q's lookups: cold (len Nodes, overwritten)
// receives per-OWNER cold counts — routing through the active set
// happens at processing time — and hot/warm are the replicated and
// profile-warm counts. A pure function of (Seed, q, user, visit) that
// reads only run state fixed from newOpenRun on, so the pre-draw
// computes it ahead, on helper goroutines under Parallel (exec.go).
func (r *openRun) drawArrival(q int, user uint64, visit int, cold []int) (hot, warm int) {
	cfg := &r.cfg
	plan := r.plan
	model := plan.Model
	for n := range cold {
		cold[n] = 0
	}
	// The user's profile key, derived once per arrival.
	var prof traffic.UserProfile
	affinity, profSize := r.affinity, r.profSize
	if profSize > 0 {
		prof = r.pop.Profile(user)
	}
	for t := 0; t < model.Tables; t++ {
		rng := stats.SeededRNG(stats.SplitSeed(cfg.Seed^0x100C, uint64(q*model.Tables+t)))
		for l := 0; l < r.draws; l++ {
			// A profile lookup draws its rank from the slot's stateless
			// stream, so each slot keeps the marginal hotness
			// distribution while pinning one row.
			var rk int
			fromProfile := false
			if profSize > 0 && rng.Float64() < affinity {
				slot := rng.Intn(profSize)
				pr := prof.Stream(t, slot)
				rk = r.ranks.Draw(&pr)
				fromProfile = true
			} else {
				rk = r.ranks.Draw(&rng)
			}
			switch {
			case plan.Replicated(rk):
				hot++
			case fromProfile && visit > 1:
				// The user's earlier visit already pulled this
				// profile row through the home node — warm there.
				warm++
			default:
				cold[plan.Owner(t, plan.perms[t].Row(rk))]++
			}
		}
	}
	return hot, warm
}

// processArrival handles one arrival whose lookups are already drawn:
// route the cold work through the active set, decide admission off the
// live queue backlogs, and schedule the sub-request copies: each sub's
// first copy onto the copy heap, the rest into its chain. Advances the
// arrival counter q.
func (r *openRun) processArrival(now float64, a *openArrival, cold []int) {
	o := r.o
	plan := r.plan
	model := plan.Model
	cfg := &r.cfg
	local := a.hot + a.warm // lookups served at home: replicated or profile-warm
	home := r.route(int(a.user % uint64(plan.Nodes)))
	// Route each owner through the active set and merge the cold
	// work per effective node; hot and warm lookups serve at home.
	for n := range r.eff {
		r.eff[n] = 0
	}
	for n, c := range cold {
		if c > 0 {
			r.eff[r.route(n)] += c
		}
	}
	admitted := true
	if o.Admission.Policy == ShedOverBudget {
		worst := 0.0
		for n, c := range r.eff {
			if c == 0 && !(n == home && local > 0) {
				continue
			}
			if b := r.backlog(n, now); b > worst {
				worst = b
			}
		}
		admitted = !o.Admission.shed(worst)
	}
	post := r.scored(r.q, now)
	r.tally.arrival(now, post, admitted, a.visit > 1)
	if admitted {
		join := r.sj.open(openJoinRec{arrive: now, joined: now, complete: true, post: post})
		for n, c := range r.eff {
			served := c
			svcUs := cfg.Timing.SubRequestUs + cfg.Timing.ColdLookupUs*float64(c)
			if n == home && local > 0 {
				served += local
				svcUs += cfg.Timing.HotLookupUs * float64(local)
			}
			if served == 0 {
				continue
			}
			reqBytes := int64(4*served) + wireHeaderBytes
			pooled := (served + model.LookupsPerSample - 1) / model.LookupsPerSample
			respBytes := int64(pooled)*int64(model.EmbDim)*4 + wireHeaderBytes
			r.schedule(r.q, join, home, n, served, svcUs/1e3, reqBytes, respBytes, now)
		}
		r.markQueryLast()
		if post {
			r.hotLookups += local
			r.totalLookups += local
			for _, c := range cold {
				r.totalLookups += c
			}
		}
		if r.sj.joins[join].subsLeft == 0 {
			// Every lookup short-circuited: the query joins at its own
			// arrival.
			r.sj.finalize(&r.tally, join)
		}
	}
	r.q++
}

// loop is the run's one event loop over the three deterministic
// sources. Ticks precede arrivals precede copies at equal instants
// (strict inequalities below encode the tie-break). Arrivals come from
// the pre-draw blocks, drawn ahead on parts goroutines (exec.go);
// copies are served one by one in copyCmp order.
func (r *openRun) loop(parts int) {
	o := r.o
	nodes := r.plan.Nodes
	h := &r.copies
	r.startHelpers(parts)
	defer r.stopHelpers()
	r.ringNext()
	prev := subCopy{arrive: math.Inf(-1)} // last popped copy (check-mode order assertion)
	for {
		now := math.Inf(1)
		kind := 0 // 1 tick, 2 arrival, 3 copy
		if r.nextTick <= o.DurationMs {
			now, kind = r.nextTick, 1
		}
		if r.nextArr < o.DurationMs && r.nextArr < now {
			now, kind = r.nextArr, 2
		}
		if h.Len() > 0 {
			if min := h.Min(); min.arrive < now {
				now, kind = min.arrive, 3
			}
		}
		switch kind {
		case 0:
			return
		case 1:
			r.tick(now)
		case 2:
			// Arrival: decide admission and schedule its sub-request
			// copies, then step the front block.
			f, i := &r.blocks[r.front], r.ringHead
			r.processArrival(now, &f.ring[i], f.cold[i*nodes:(i+1)*nodes])
			r.ringHead++
			if r.ringHead == len(f.ring) {
				r.ringNext()
			} else {
				r.nextArr = f.ring[r.ringHead].t
			}
		case 3:
			cp := h.Pop()
			if check.Enabled {
				check.Assert(!math.IsNaN(cp.arrive) && copyCmp(prev, cp) < 0,
					"cluster: popped copy (arrive %g, seq %d, attempt %d) out of strict copy order", cp.arrive, cp.seq, cp.attempt)
				prev = cp
			}
			r.serveCopy(&cp, r.route(cp.node))
			r.queueNext(cp.sub)
			r.copyDone(cp.sub)
		}
	}
}

// summary folds the run into a Result — the join's samples or its
// sketch, and the tally — plus the fleet-level accounting shared by both
// modes. A closed run's horizon is its last finish instant and its
// capacity every node over that horizon; the open-loop-only fields stay
// zero.
func (r *openRun) summary() Result {
	o := r.o
	plan := r.plan
	cfg := &r.cfg
	sj := &r.sj
	t := &r.tally
	closed := cfg.Open == nil

	if check.Enabled {
		check.Assert(len(sj.freeJoins) == len(sj.joins),
			"cluster: %d joins still open after drain", len(sj.joins)-len(sj.freeJoins))
	}
	var pct []float64
	if sj.stream {
		pct = []float64{sj.sketch.Quantile(0.50), sj.sketch.Quantile(0.95), sj.sketch.Quantile(0.99)}
	} else {
		// Exact mode: sum the samples in scored-admission order, so Mean
		// is stats.Mean of them bit for bit.
		for i, lat := range sj.lats {
			t.latSum += lat
			t.completenessSum += sj.shares[i]
		}
		pct = stats.Percentiles(sj.lats, 0.50, 0.95, 0.99)
	}
	var mean float64
	if t.nLat > 0 {
		mean = t.latSum / float64(t.nLat)
	}

	res := Result{
		P50:                 pct[0],
		P95:                 pct[1],
		P99:                 pct[2],
		Mean:                mean,
		MaxQueueWaitMs:      r.maxWait,
		ReplicaBytesPerNode: plan.ReplicaBytesPerNode(),
		MaxShardBytes:       plan.MaxShardBytes(),
	}
	// An all-shed storm leaves no admitted queries: the ratio metrics are
	// left zero instead of dividing by zero (Percentile/Mean already
	// return 0 on empty slices).
	if n := t.nLat; n > 0 {
		res.MeanFanout = float64(t.subCount) / float64(n)
		res.Availability = float64(t.fullJoins) / float64(n)
		res.Completeness = t.completenessSum / float64(n)
		res.RetriesPerQuery = float64(t.retries) / float64(n)
		res.RetryAmplification = float64(t.subCount+t.hedges+t.retries) / float64(n)
	}
	if r.adapt != nil {
		res.BreakerOpenMinutes = r.adapt.finalize() / 60000
	}
	if t.subCount > 0 {
		res.HedgeRate = float64(t.hedges) / float64(t.subCount)
	}
	if r.totalLookups > 0 {
		res.LocalFraction = float64(r.hotLookups) / float64(r.totalLookups)
	}
	var busySum, busyMax float64
	for _, qu := range r.queues {
		b := qu.BusyMs()
		busySum += b
		if b > busyMax {
			busyMax = b
		}
	}
	if busySum > 0 {
		res.Imbalance = busyMax / (busySum / float64(plan.Nodes))
	}

	// Capacity: every node over a closed run's horizon; the time-integrated
	// active set (node·ms) over an open one — a drained node contributes
	// no capacity.
	horizon, capMs := t.simEnd, t.simEnd*float64(plan.Nodes*cfg.ServersPerNode)
	if !closed {
		r.noteActive(o.DurationMs)
		horizon, capMs = o.DurationMs, r.nodeMsSum*float64(cfg.ServersPerNode)
		r.openMetrics(&res)
	}
	if capMs > 0 {
		res.Utilization = busySum / capMs
	}
	res.DomainAvailability = 1
	if cfg.Chaos.Active() && horizon > 0 {
		res.DomainAvailability = 1 - r.faults.outageMs(horizon)/(float64(r.faults.domains)*horizon)
	}
	if check.Enabled {
		finite := check.Finite
		check.Assert(finite(res.P50) && finite(res.P99) && finite(res.Mean) && finite(res.Utilization),
			"cluster: non-finite latency summary (p50 %g, p99 %g, mean %g, util %g)",
			res.P50, res.P99, res.Mean, res.Utilization)
		check.Assert(finite(res.RetryAmplification) && finite(res.DomainAvailability) && res.TimeToRecoverMs >= -1,
			"cluster: impossible recovery accounting (amplification %g, domain availability %g, recover %g ms)",
			res.RetryAmplification, res.DomainAvailability, res.TimeToRecoverMs)
		check.Assert(closed || (finite(res.Goodput) && finite(res.ShedRate) && res.SLAViolationMinutes >= 0 && res.MeanActiveNodes > 0),
			"cluster: impossible open-loop accounting (goodput %g, shed %g, violation minutes %g, active nodes %g)",
			res.Goodput, res.ShedRate, res.SLAViolationMinutes, res.MeanActiveNodes)
	}
	return res
}

// openMetrics fills the open-loop-only Result fields: offered load,
// goodput, shedding, SLA minutes, the active set, revisits, and the
// chaos recovery metrics.
func (r *openRun) openMetrics(res *Result) {
	o := r.o
	t := &r.tally
	window := o.DurationMs - o.WarmupMs
	res.OfferedQPS = float64(t.postArr) / (window / 1e3)
	res.Goodput = float64(t.good) / (window / 1e3)
	res.SLAViolationMinutes = float64(len(t.violated))
	res.MeanActiveNodes = r.nodeMsSum / o.DurationMs
	res.ScaleUps, res.ScaleDowns = r.scaleUps, r.scaleDowns
	if t.postArr > 0 {
		res.ShedRate = float64(t.postShed) / float64(t.postArr)
		res.RevisitRate = float64(t.postRevisit) / float64(t.postArr)
	}
	if !r.cfg.Chaos.Active() {
		return
	}
	// Time to recover: the earliest minute bucket past the schedule's
	// clear instant from which every later non-empty bucket keeps an
	// in-SLA fraction of at least 1-recoverEps. Empty buckets are neutral;
	// -1 means the fleet never re-entered a sustained good regime before
	// the horizon (the metastable signature).
	minuteMs := t.minuteMs
	clearT := math.Min(r.faults.clearMs, o.DurationMs)
	recB := -1
	for b := len(t.ttrArr) - 1; b >= int(clearT/minuteMs)+1; b-- {
		if t.ttrArr[b] == 0 {
			continue
		}
		if float64(t.ttrGood[b]) >= (1-recoverEps)*float64(t.ttrArr[b]) {
			recB = b
		} else {
			break
		}
	}
	res.TimeToRecoverMs = -1
	if recB >= 0 {
		res.TimeToRecoverMs = math.Max(0, float64(recB)*minuteMs-clearT)
	}
	if pfWindow := o.DurationMs - t.pfThreshMs; pfWindow > 0 {
		res.PostFaultOfferedQPS = float64(t.pfArr) / (pfWindow / 1e3)
		res.PostFaultGoodput = float64(t.pfGood) / (pfWindow / 1e3)
	}
}
