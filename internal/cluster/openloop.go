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
// The closed-loop simulator pre-schedules every copy and sorts once; here
// admission decisions must observe queue state at arrival time, so the
// run is a single event loop over three deterministic event sources —
// autoscaler control ticks, stream arrivals, and a timing wheel of
// scheduled sub-request copies in the same copyCmp total order the
// closed-loop sort uses. At equal instants ticks precede arrivals precede
// copies; every source is a pure function of (Seed, index) via
// stats.SplitSeed, so open-loop results keep the registry-wide
// byte-identical-at-any-worker-count determinism property.
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

	"dlrmsim/internal/check"
	"dlrmsim/internal/eventq"
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
		if a.QueueBudgetMs <= 0 {
			errs = append(errs, fmt.Errorf("cluster: shed admission needs a positive queue budget (got %g ms)", a.QueueBudgetMs))
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

func (a *Autoscaler) validateErrs(nodes int) []error {
	var errs []error
	if a.IntervalMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: autoscaler needs a positive control interval (got %g ms)", a.IntervalMs))
	}
	if a.UpBacklogMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: autoscaler needs a positive scale-up backlog threshold (got %g ms)", a.UpBacklogMs))
	}
	if a.DownBacklogMs < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative scale-down threshold %g ms", a.DownBacklogMs))
	}
	if a.UpBacklogMs > 0 && a.DownBacklogMs >= a.UpBacklogMs {
		errs = append(errs, fmt.Errorf("cluster: scale-down threshold %g ms must sit below scale-up threshold %g ms",
			a.DownBacklogMs, a.UpBacklogMs))
	}
	if a.ProvisionMs < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative provisioning delay %g ms", a.ProvisionMs))
	}
	if a.MinNodes < 0 || a.MinNodes > nodes {
		errs = append(errs, fmt.Errorf("cluster: autoscaler floor %d outside [0,%d]", a.MinNodes, nodes))
	}
	if a.MaxNodes < 0 || a.MaxNodes > nodes {
		errs = append(errs, fmt.Errorf("cluster: autoscaler cap %d outside [0,%d]", a.MaxNodes, nodes))
	}
	minN, maxN := a.MinNodes, a.MaxNodes
	if minN == 0 {
		minN = 1
	}
	if maxN == 0 {
		maxN = nodes
	}
	if minN > maxN {
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
	// StreamStats switches the summary to the incremental flat-memory
	// join (streamstats.go): live state bounded by the in-flight
	// high-water mark instead of O(queries), counters exact,
	// percentiles within the stats.QuantileSketch error bound (~0.8%).
	// Off by default — the batch join's exact nearest-rank percentiles
	// are the golden baseline.
	StreamStats bool
}

// validateErrs reports every violation without mutating o, accepting the
// zero-means-default fields in either pre- or post-default form.
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
	if o.DurationMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: open-loop runs need a positive duration (got %g ms)", o.DurationMs))
	}
	if o.WarmupMs < 0 && o.WarmupMs != -1 {
		errs = append(errs, fmt.Errorf("cluster: warmup %g ms (use -1 for explicit zero)", o.WarmupMs))
	}
	if o.DurationMs > 0 {
		w := o.WarmupMs
		switch w {
		case 0:
			w = o.DurationMs / 20
		case -1:
			w = 0
		}
		if w >= o.DurationMs {
			errs = append(errs, fmt.Errorf("cluster: warmup %g ms >= duration %g ms", w, o.DurationMs))
		}
	}
	if o.SLAMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: open-loop runs need a positive SLA target (got %g ms)", o.SLAMs))
	}
	if o.StartNodes < 0 || o.StartNodes > nodes {
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
		if start < minN {
			errs = append(errs, fmt.Errorf("cluster: %d start nodes below autoscaler floor %d", start, minN))
		}
	}
	return errs
}

// applyDefaults resolves the zero-means-default fields in place and
// returns the first validation failure (mirroring Config.applyDefaults;
// Config.Validate is the collect-all front door).
func (o *OpenLoop) applyDefaults(nodes int) error {
	if errs := o.validateErrs(nodes); len(errs) > 0 {
		return errs[0]
	}
	switch o.WarmupMs {
	case 0:
		o.WarmupMs = o.DurationMs / 20
	case -1:
		o.WarmupMs = 0
	}
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
	return nil
}

// openQuery is one arrival's router-side record.
type openQuery struct {
	arrive   float64
	admitted bool
	revisit  bool
}

// openRun is one open-loop simulation's mutable state, factored out of
// the historical simulateOpen monolith so the sequential driver (loop)
// and the conservative-window parallel driver (openparallel.go) share
// every event handler — tick, arrival, summary — verbatim. Only the
// driver differs; the handlers are where the semantics live.
type openRun struct {
	o    *OpenLoop
	plan *Plan
	st   *simState

	stream   *traffic.Stream
	visitors *traffic.Visitors
	pop      traffic.Population
	zipf     *stats.Zipf

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

	minuteMs float64
	violated map[int]bool
	sj       *streamJoin

	h        *eventq.Wheel[subCopy] // the sequential driver's single copy queue
	push     func(c subCopy)        // driver-owned: where scheduled copies go
	queries  []openQuery
	firstSub []int
	cold     []int // arrival-scratch: cold lookups per owner node
	eff      []int // arrival-scratch: cold work per effective node
	draws    int

	hotLookups, totalLookups int

	nextArr float64
	q       int

	// Pre-draw ring (openparallel.go): arrivals whose lookup draws were
	// computed ahead, in parallel, as pure functions of (Seed, q, user).
	ring     []openArrival
	ringCold []int
	ringHead int

	// Recovery observability (chaos.go): minute buckets of post-warmup
	// arrivals and in-SLA completions, and the post-fault (arrive >=
	// pfThresh) offered/good counters. Nil/zero without a chaos schedule;
	// the batch join fills them in the summary loop, stream-stats runs
	// fill them through the streamJoin aliases.
	ttrArr, ttrGood []int
	pfThresh        float64
	pfArr, pfGood   int

	// The run's recycled working set (arena.go); simulateOpen releases
	// it after the summary.
	arena *runArena
}

// newOpenRun builds the run state. cfg has been default-applied;
// cfg.Open is non-nil. sketchParts sizes the stream-stats join's
// per-partition sketch set (1 for the sequential driver).
func newOpenRun(cfg Config, sketchParts int) (*openRun, error) {
	o := cfg.Open
	plan := cfg.Plan
	model := plan.Model

	ar := o.Arrivals
	ar.Seed = stats.SplitSeed(cfg.Seed^saltOpenArrivals, 0)
	stream, err := traffic.NewStream(ar)
	if err != nil {
		return nil, err
	}
	var visitors *traffic.Visitors
	var pop traffic.Population
	if o.Population != nil {
		pop = *o.Population
		pop.Seed = stats.SplitSeed(cfg.Seed^saltOpenUsers, 0)
		visitors, err = traffic.NewVisitors(pop)
		if err != nil {
			return nil, err
		}
	}

	a := acquireArena()
	st := &simState{
		cfg:      cfg,
		plan:     plan,
		queues:   a.queueSet(plan.Nodes, cfg.ServersPerNode),
		warmupMs: o.WarmupMs,
	}
	st.subs = a.subs[:0]
	st.copies = a.copies[:0]
	if cfg.Faults.Active() {
		st.faults = newFaultState(cfg.Faults, cfg.Seed, plan.Nodes)
	}
	if cfg.Chaos.Active() {
		st.chaos = a.chaosFor(&cfg.Chaos, plan.Nodes)
	}
	if cfg.Mitigation.adaptive() {
		st.adapt = a.adaptFor(&cfg.Mitigation, plan.Nodes)
	}

	active := a.boolSet(plan.Nodes)
	for n := 0; n < o.StartNodes; n++ {
		active[n] = true
	}

	var zipf *stats.Zipf
	switch cfg.Hotness {
	case trace.OneItem, trace.RandomAccess:
	default:
		zipf = stats.NewSharedZipf(model.RowsPerTable, cfg.Hotness.ReferenceExponent())
	}

	// SLA-violation minutes bucketize on the configured day when the
	// stream defines one, else on the run horizon.
	minuteMs := o.DurationMs / 1440
	if ar.DayMs > 0 {
		minuteMs = ar.DayMs / 1440
	}

	r := &openRun{
		o:           o,
		plan:        plan,
		st:          st,
		stream:      stream,
		visitors:    visitors,
		pop:         pop,
		zipf:        zipf,
		active:      active,
		activeCount: o.StartNodes,
		as:          o.Autoscale,
		nextTick:    math.Inf(1),
		pendingNode: -1,
		minuteMs:    minuteMs,
		violated:    a.violatedMap(),
		queries:     a.queries[:0],
		firstSub:    append(a.firstSub[:0], 0),
		cold:        arenaSlice(&a.cold, plan.Nodes),
		eff:         arenaSlice(&a.eff, plan.Nodes),
		draws:       cfg.SamplesPerQuery * model.LookupsPerSample,
		ring:        a.ring,
		ringCold:    a.ringCold,
		arena:       a,
	}
	if r.as != nil {
		r.nextTick = r.as.IntervalMs
	}
	if st.chaos != nil {
		r.ttrArr, r.ttrGood = a.ttrBuckets(int(o.DurationMs/minuteMs) + 1)
		clearT := math.Min(st.chaos.clearMs, o.DurationMs)
		r.pfThresh = math.Max(clearT, o.WarmupMs)
	}
	if o.StreamStats {
		r.sj = newStreamJoin(o, minuteMs, r.violated, sketchParts)
		r.sj.denseMs = cfg.Timing.DenseMs
		r.sj.ttrArr, r.sj.ttrGood = r.ttrArr, r.ttrGood
		r.sj.pfThreshMs = r.pfThresh
		st.recycle = true
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
	if b := r.st.queues[n].EarliestFree() - now; b > 0 {
		return b
	}
	return 0
}

func (r *openRun) noteActive(now float64) {
	r.nodeMsSum += float64(r.activeCount) * (now - r.lastChange)
	r.lastChange = now
}

// sampleRank draws one lookup's hotness rank from any generator — the
// per-(query,table) stream for fresh lookups, a stateless profile
// stream for profile lookups, so profile slots keep the marginal
// hotness distribution while pinning each slot to one row.
func (r *openRun) sampleRank(rng *stats.RNG) int {
	switch r.st.cfg.Hotness {
	case trace.OneItem:
		return 0
	case trace.RandomAccess:
		return rng.Intn(r.plan.Model.RowsPerTable)
	default:
		return r.zipf.SampleWith(rng)
	}
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
		r.st.queues[r.pendingNode].Unavailable(r.pendingReady)
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
// profile-warm counts. A pure function of (Seed, q, user, visit), so
// the parallel driver pre-computes it concurrently (openparallel.go).
func (r *openRun) drawArrival(q int, user uint64, visit int, cold []int) (hot, warm int) {
	cfg := &r.st.cfg
	plan := r.plan
	model := plan.Model
	for n := range cold {
		cold[n] = 0
	}
	for t := 0; t < model.Tables; t++ {
		rng := stats.SeededRNG(stats.SplitSeed(cfg.Seed^0x100C, uint64(q*model.Tables+t)))
		for l := 0; l < r.draws; l++ {
			var rk int
			fromProfile := false
			if r.visitors != nil && rng.Float64() < r.visitors.Affinity() {
				slot := rng.Intn(r.visitors.ProfileSize())
				pr := r.pop.ProfileStream(user, t, slot)
				rk = r.sampleRank(&pr)
				fromProfile = true
			} else {
				rk = r.sampleRank(&rng)
			}
			switch {
			case plan.Replicated(rk):
				hot++
			case fromProfile && visit > 1:
				// The user's earlier visit already pulled this
				// profile row through the home node — warm there.
				warm++
			default:
				cold[plan.Owner(t, plan.rowOfRank(t, rk))]++
			}
		}
	}
	return hot, warm
}

// processArrival handles one arrival whose lookups are already drawn:
// route the cold work through the active set, decide admission off
// backlogAt (the live queues sequentially; a reconstructed as-of-now
// view under the parallel driver), and schedule the sub-request copies
// through r.push. Advances the arrival counter q.
func (r *openRun) processArrival(now float64, user uint64, visit int, hot, warm int, cold []int, backlogAt func(n int, now float64) float64) {
	o := r.o
	plan := r.plan
	model := plan.Model
	cfg := &r.st.cfg
	st := r.st
	home := r.route(int(user % uint64(plan.Nodes)))
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
	joinSlot := -1
	admitted := true
	if o.Admission.Policy == ShedOverBudget {
		worst := 0.0
		for n, c := range r.eff {
			if c == 0 && !(n == home && hot+warm > 0) {
				continue
			}
			if b := backlogAt(n, now); b > worst {
				worst = b
			}
		}
		admitted = !o.Admission.shed(worst)
	}
	if r.sj != nil {
		joinSlot = r.sj.arrival(now, admitted, visit > 1)
	}
	if admitted {
		for n, c := range r.eff {
			served := c
			svcUs := cfg.Timing.SubRequestUs + cfg.Timing.ColdLookupUs*float64(c)
			if n == home && hot+warm > 0 {
				served += hot + warm
				svcUs += cfg.Timing.HotLookupUs * float64(hot+warm)
			}
			if served == 0 {
				continue
			}
			reqBytes := int64(4*served) + wireHeaderBytes
			pooled := (served + model.LookupsPerSample - 1) / model.LookupsPerSample
			respBytes := int64(pooled)*int64(model.EmbDim)*4 + wireHeaderBytes
			before := len(st.copies)
			idx := st.schedule(r.q, home, n, served, svcUs/1e3, reqBytes, respBytes, now)
			if r.sj != nil {
				st.subs[idx].join = joinSlot
				r.sj.subAttached(joinSlot)
			}
			for _, cp := range st.copies[before:] {
				r.push(cp)
			}
			st.copies = st.copies[:before]
		}
		if now >= o.WarmupMs {
			r.hotLookups += hot + warm
			r.totalLookups += hot + warm
			for _, c := range cold {
				r.totalLookups += c
			}
		}
	}
	if r.sj != nil {
		r.sj.finalizeIfEmpty(joinSlot)
	} else {
		r.queries = append(r.queries, openQuery{arrive: now, admitted: admitted, revisit: visit > 1})
		r.firstSub = append(r.firstSub, len(st.subs))
	}
	r.q++
}

// loop is the sequential driver: one event loop over the three
// deterministic sources. Ticks precede arrivals precede copies at equal
// instants (strict inequalities below encode the tie-break).
func (r *openRun) loop() {
	o := r.o
	r.h = r.arena.copyQueueSet(1)[0]
	r.push = r.h.Push
	r.st.seqScratch = &r.arena.partScratchSet(1)[0]
	r.nextArr = r.stream.Next()
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
		if r.h.Len() > 0 {
			if min := r.h.Min(); min.arrive < now {
				now, kind = min.arrive, 3
			}
		}
		switch kind {
		case 0:
			return
		case 1:
			r.tick(now)
		case 2:
			// Arrival: attribute it, draw its lookups, decide admission,
			// and schedule its sub-request copies.
			user, visit := uint64(r.q), 1
			if r.visitors != nil {
				user, visit = r.visitors.Next()
			}
			hot, warm := r.drawArrival(r.q, user, visit, r.cold)
			r.processArrival(now, user, visit, hot, warm, r.cold, r.backlog)
			r.nextArr = r.stream.Next()
		case 3:
			cp := r.h.Pop()
			if check.Enabled {
				check.Assert(!math.IsNaN(cp.arrive) && copyCmp(prev, cp) < 0,
					"cluster: popped copy (arrive %g, seq %d, attempt %d) out of strict copy order", cp.arrive, cp.seq, cp.attempt)
				prev = cp
			}
			r.st.serveCopy(&cp, r.route(cp.node))
			if r.sj != nil {
				r.sj.copyDone(r.st, cp.sub, 0)
			}
		}
	}
}

// simulateOpen runs the open-loop live-traffic simulation. cfg has been
// default-applied; cfg.Open is non-nil. The parallel execution backend
// engages when it has partitions to run and a positive network hop to
// hide the window barriers behind (with a free network every
// conservative window is empty and the run stays sequential).
func simulateOpen(cfg Config) (Result, error) {
	parts := execParts(cfg.Plan.Nodes)
	useParallel := parts > 1 && cfg.Net.LatencyMs > 0
	sketchParts := 1
	if useParallel {
		sketchParts = parts
	}
	r, err := newOpenRun(cfg, sketchParts)
	if err != nil {
		return Result{}, err
	}
	if useParallel {
		r.loopParallel(parts)
	} else {
		r.loop()
	}
	res := r.summary()
	a := r.arena
	a.subs, a.copies = r.st.subs, r.st.copies
	a.queries, a.firstSub = r.queries, r.firstSub
	a.ring, a.ringCold = r.ring, r.ringCold
	a.release()
	return res, nil
}

// summary folds the run into a Result — the batch join over retained
// queries, or the stream join's accumulators — plus the fleet-level
// accounting shared by both modes.
func (r *openRun) summary() Result {
	o := r.o
	plan := r.plan
	st := r.st
	cfg := &st.cfg
	sj := r.sj
	queries, firstSub := r.queries, r.firstSub
	violated, minuteMs := r.violated, r.minuteMs
	hotLookups, totalLookups := r.hotLookups, r.totalLookups
	r.noteActive(o.DurationMs)
	nodeMsSum := r.nodeMsSum

	window := o.DurationMs - o.WarmupMs
	var pct []float64
	var mean float64
	var nLat int
	var fanoutSum, subCount, hedgeCount, retryCount, fullJoins int
	var postArr, postShed, postRevisit, goodCount int
	var completenessSum float64
	if sj != nil {
		// Stream-stats: every query already folded at its last copy; the
		// summary reads the accumulators and the sketch.
		if check.Enabled {
			check.Assert(len(sj.freeJoins) == len(sj.joins),
				"cluster: %d stream joins still open after drain", len(sj.joins)-len(sj.freeJoins))
		}
		// Quantiles come from the merged per-partition sketches — the
		// merge is integer bucket addition, so the result is identical
		// whatever partition each query folded into. The mean comes from
		// latSum, which finalize accumulates in canonical completion
		// order in every driver, keeping it bit-for-bit reproducible.
		merged := &sj.sketches[0]
		for i := 1; i < len(sj.sketches); i++ {
			merged.Merge(&sj.sketches[i])
		}
		pct = []float64{merged.Quantile(0.50), merged.Quantile(0.95), merged.Quantile(0.99)}
		nLat = int(merged.Count())
		if nLat > 0 {
			mean = sj.latSum / float64(nLat)
		}
		fanoutSum, subCount = sj.fanoutSum, sj.subCount
		hedgeCount, retryCount, fullJoins = sj.hedgeCount, sj.retryCount, sj.fullJoins
		postArr, postShed, postRevisit, goodCount = sj.postArr, sj.postShed, sj.postRevisit, sj.goodCount
		completenessSum = sj.completenessSum
		r.pfArr, r.pfGood = sj.pfArr, sj.pfGood
		if streamHighWater != nil {
			streamHighWater(sj.maxLiveSubs, sj.maxLiveJoins)
		}
	} else {
		// Batch join: identical to the closed-loop phase 3, over admitted
		// queries, plus the SLA/goodput/shed accounting. The sample slice
		// is sized from the admitted post-warmup count (the closed loop
		// preallocates the same way), so the append loop never reallocates.
		nSamples := 0
		for _, oq := range queries {
			if oq.admitted && oq.arrive >= o.WarmupMs {
				nSamples++
			}
		}
		if cap(r.arena.latencies) < nSamples {
			r.arena.latencies = make([]float64, 0, nSamples)
		}
		latencies := r.arena.latencies[:0]
		for i, oq := range queries {
			post := oq.arrive >= o.WarmupMs
			if post {
				postArr++
				if oq.revisit {
					postRevisit++
				}
				if r.ttrArr != nil {
					r.ttrArr[int(oq.arrive/minuteMs)]++
					if oq.arrive >= r.pfThresh {
						r.pfArr++
					}
				}
			}
			if !oq.admitted {
				if post {
					postShed++
				}
				continue
			}
			joined := oq.arrive
			queryLookups, servedLookups := 0, 0
			hedges, retries := 0, 0
			complete := true
			for s := firstSub[i]; s < firstSub[i+1]; s++ {
				sub := &st.subs[s]
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
			if !post {
				continue
			}
			lat := finish - oq.arrive
			latencies = append(latencies, lat)
			if lat <= o.SLAMs {
				goodCount++
				if r.ttrArr != nil {
					r.ttrGood[int(oq.arrive/minuteMs)]++
					if oq.arrive >= r.pfThresh {
						r.pfGood++
					}
				}
			} else {
				violated[int(oq.arrive/minuteMs)] = true
			}
			fanoutSum += firstSub[i+1] - firstSub[i]
			subCount += firstSub[i+1] - firstSub[i]
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
		pct = stats.Percentiles(latencies, 0.50, 0.95, 0.99)
		mean = stats.Mean(latencies)
		nLat = len(latencies)
	}

	res := Result{
		P50:                 pct[0],
		P95:                 pct[1],
		P99:                 pct[2],
		Mean:                mean,
		MaxQueueWaitMs:      st.maxWait,
		ReplicaBytesPerNode: plan.ReplicaBytesPerNode(),
		MaxShardBytes:       plan.MaxShardBytes(),
		OfferedQPS:          float64(postArr) / (window / 1e3),
		Goodput:             float64(goodCount) / (window / 1e3),
		SLAViolationMinutes: float64(len(violated)),
		MeanActiveNodes:     nodeMsSum / o.DurationMs,
		ScaleUps:            r.scaleUps,
		ScaleDowns:          r.scaleDowns,
	}
	// An all-shed storm leaves no admitted queries: the ratio metrics are
	// left zero instead of dividing by zero (Percentile/Mean already
	// return 0 on empty slices).
	if n := nLat; n > 0 {
		res.MeanFanout = float64(fanoutSum) / float64(n)
		res.Availability = float64(fullJoins) / float64(n)
		res.Completeness = completenessSum / float64(n)
		res.RetriesPerQuery = float64(retryCount) / float64(n)
		res.RetryAmplification = float64(subCount+hedgeCount+retryCount) / float64(n)
	}
	if st.adapt != nil {
		res.BreakerOpenMinutes = st.adapt.finalize() / 60000
	}
	res.DomainAvailability = 1
	if st.chaos != nil {
		res.DomainAvailability = 1 - st.chaos.outageMs(o.DurationMs)/(float64(st.chaos.domains)*o.DurationMs)
		// Time to recover: the earliest minute bucket past the schedule's
		// clear instant from which every later non-empty bucket keeps an
		// in-SLA fraction of at least 1-recoverEps. Empty buckets are
		// neutral; -1 means the fleet never re-entered a sustained good
		// regime before the horizon (the metastable signature).
		clearT := math.Min(st.chaos.clearMs, o.DurationMs)
		recB := -1
		for b := len(r.ttrArr) - 1; b >= int(clearT/minuteMs)+1; b-- {
			if r.ttrArr[b] == 0 {
				continue
			}
			if float64(r.ttrGood[b]) >= (1-recoverEps)*float64(r.ttrArr[b]) {
				recB = b
			} else {
				break
			}
		}
		res.TimeToRecoverMs = -1
		if recB >= 0 {
			res.TimeToRecoverMs = math.Max(0, float64(recB)*minuteMs-clearT)
		}
		if pfWindow := o.DurationMs - r.pfThresh; pfWindow > 0 {
			res.PostFaultOfferedQPS = float64(r.pfArr) / (pfWindow / 1e3)
			res.PostFaultGoodput = float64(r.pfGood) / (pfWindow / 1e3)
		}
	}
	if postArr > 0 {
		res.ShedRate = float64(postShed) / float64(postArr)
		res.RevisitRate = float64(postRevisit) / float64(postArr)
	}
	if subCount > 0 {
		res.HedgeRate = float64(hedgeCount) / float64(subCount)
	}
	if totalLookups > 0 {
		res.LocalFraction = float64(hotLookups) / float64(totalLookups)
	}
	var busySum float64
	busyByNode := make([]float64, plan.Nodes)
	for n, qu := range st.queues {
		busyByNode[n] = qu.BusyMs()
		busySum += busyByNode[n]
	}
	// Capacity is the time-integrated active set (node·ms), not
	// nodes×horizon — a drained node contributes no capacity.
	if nodeMsSum > 0 {
		res.Utilization = busySum / (nodeMsSum * float64(cfg.ServersPerNode))
	}
	var busyMax float64
	for _, b := range busyByNode {
		if b > busyMax {
			busyMax = b
		}
	}
	if busySum > 0 {
		res.Imbalance = busyMax / (busySum / float64(plan.Nodes))
	}
	if check.Enabled {
		finite := check.Finite
		check.Assert(finite(res.P99) && finite(res.Goodput) && finite(res.ShedRate) && finite(res.Utilization),
			"cluster: non-finite open-loop summary (p99 %g, goodput %g, shed %g, util %g)",
			res.P99, res.Goodput, res.ShedRate, res.Utilization)
		check.Assert(res.SLAViolationMinutes >= 0 && res.MeanActiveNodes > 0,
			"cluster: impossible open-loop accounting (violation minutes %g, active nodes %g)",
			res.SLAViolationMinutes, res.MeanActiveNodes)
		check.Assert(finite(res.RetryAmplification) && finite(res.DomainAvailability) && res.TimeToRecoverMs >= -1,
			"cluster: impossible recovery accounting (amplification %g, domain availability %g, recover %g ms)",
			res.RetryAmplification, res.DomainAvailability, res.TimeToRecoverMs)
	}
	return res
}
