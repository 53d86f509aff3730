package cpusim

import (
	"fmt"
	"math"

	"dlrmsim/internal/check"
	"dlrmsim/internal/memsim"
)

// CoreParams sets the microarchitectural knobs of one physical core.
type CoreParams struct {
	// IssueWidth is the sustained issue rate in ops per cycle.
	IssueWidth float64
	// WindowSize is the instruction-window (ROB) depth in ops. A thread
	// stalls when its oldest incomplete load falls WindowSize ops behind
	// the issue point. Under SMT contention each thread sees half.
	WindowSize int
	// DemandMLP caps outstanding demand misses per core. It models the
	// effective memory-level parallelism the out-of-order engine
	// sustains for loads on the retirement path, and is therefore lower
	// than the raw fill-buffer count.
	DemandMLP int
	// FillBuffers caps TOTAL outstanding fills (demand misses plus
	// software/hardware prefetches), like a physical LFB/MSHR file
	// shared by both SMT threads. Prefetches occupy fill buffers but
	// never the instruction window — which is exactly why Algorithm 3
	// helps: the same fills stop blocking retirement.
	FillBuffers int
	// PipelinedLatency is the largest load latency the out-of-order
	// engine hides completely (roughly the L2 hit latency); cheaper
	// loads never occupy miss-tracking resources.
	PipelinedLatency int64
}

// Validate reports whether the parameters are usable.
func (p CoreParams) Validate() error {
	if p.IssueWidth <= 0 {
		return fmt.Errorf("cpusim: IssueWidth %g", p.IssueWidth)
	}
	if p.WindowSize < 2 {
		return fmt.Errorf("cpusim: WindowSize %d", p.WindowSize)
	}
	if p.DemandMLP < 1 || p.FillBuffers < 1 {
		return fmt.Errorf("cpusim: MLP caps %d/%d", p.DemandMLP, p.FillBuffers)
	}
	if p.FillBuffers < p.DemandMLP {
		return fmt.Errorf("cpusim: FillBuffers %d < DemandMLP %d", p.FillBuffers, p.DemandMLP)
	}
	return nil
}

type inflightLoad struct {
	completeAt float64
	seq        int64
}

// thread is one SMT hardware context.
type thread struct {
	stream Stream
	now    float64
	start  float64
	seq    int64
	// loads is this thread's in-flight-load FIFO (ascending seq).
	// loadHead indexes the logical front, like fillPool: retiring is an
	// index bump, not a memmove of the whole window.
	loads    []inflightLoad
	loadHead int
	done     bool

	// In-progress load or prefetch (every one runs as a burst of
	// max(Op.Lines, 1) lines): the next line and how many remain. A
	// burst suspends whenever the per-op scheduler would have run
	// someone else and resumes on the next Step.
	gatherAddr memsim.Addr
	gatherLeft int32
	gatherHint memsim.AccessKind
	gatherPf   bool

	// span describes the time interval consumed by the last op, used by
	// the sibling to decide whether issue slots are contended.
	spanEnd   float64
	spanIssue bool // true: actively issuing; false: stalled on memory

	// activeCyc accumulates time spent issuing/executing (stalls
	// excluded); activeCyc / elapsed is the thread's pipeline duty
	// cycle, which scales how much it slows a sibling down.
	activeCyc float64

	// stats
	issued    int64
	stallCyc  float64
	computeCy float64
}

// duty returns the thread's pipeline duty cycle so far in [0, 1]. A
// freshly started thread is assumed fully active.
func (t *thread) duty() float64 {
	elapsed := t.now - t.start
	if elapsed <= 0 {
		return 1
	}
	d := t.activeCyc / elapsed
	if d > 1 {
		return 1
	}
	return d
}

// ThreadResult summarizes one hardware context after a run.
type ThreadResult struct {
	// Cycles is the thread's completion time.
	Cycles float64
	// Issued is the number of ops the thread executed.
	Issued int64
	// StallCycles is time spent stalled on the window, MSHRs, or
	// prefetch-queue backpressure.
	StallCycles float64
	// ComputeCycles is time spent in OpCompute execution.
	ComputeCycles float64
}

// CoreResult summarizes a core run.
type CoreResult struct {
	// Cycles is the core's completion time (max over threads).
	Cycles float64
	// Threads holds per-context results, in the order streams were given.
	Threads []ThreadResult
}

// Core models one physical core: up to two SMT contexts in front of a
// private memsim.Hierarchy. The zero value is unusable; construct with
// NewCore.
type Core struct {
	params CoreParams
	hier   *memsim.Hierarchy

	// Core-wide miss pools (completion times, ascending), shared by both
	// SMT contexts like physical fill buffers.
	demand   fillPool
	prefetch fillPool

	threads  []*thread
	thrStore [2]thread // backing for threads, reused across Begin calls

	// op is Step's decode scratch. It is a field rather than a local so
	// the Stream interface call cannot force a fresh heap allocation on
	// every op (the escape analyzer cannot see through the interface).
	op Op

	// burstLimit is the cross-core interleaving horizon runStates sets
	// before bursting this core: a multi-line op suspends once the
	// thread clock passes it, exactly where the per-op driver would
	// have handed control back. +Inf outside runStates.
	burstLimit float64
}

// fillPool is an ascending queue of fill completion times. head indexes
// the logical front, so popping and draining are O(1) index bumps instead
// of memmoves; insertion stays a short shuffle near the tail (a pool
// holds at most FillBuffers entries). Equal completion times keep their
// insertion order, exactly like the linear insertion this replaces.
type fillPool struct {
	buf  []float64
	head int
}

func (p *fillPool) size() int      { return len(p.buf) - p.head }
func (p *fillPool) front() float64 { return p.buf[p.head] }

func (p *fillPool) reset() {
	p.buf = p.buf[:0]
	p.head = 0
}

func (p *fillPool) popFront() {
	p.head++
	if p.head == len(p.buf) {
		p.reset()
	}
}

// drainBefore drops entries completed by now (the queue is ascending).
func (p *fillPool) drainBefore(now float64) {
	h := p.head
	for h < len(p.buf) && p.buf[h] <= now {
		h++
	}
	if h == len(p.buf) {
		p.reset()
		return
	}
	p.head = h
}

// insert places v keeping the queue ascending (stable for equal values).
func (p *fillPool) insert(v float64) {
	if p.head > 0 && len(p.buf) == cap(p.buf) {
		n := copy(p.buf, p.buf[p.head:])
		p.buf = p.buf[:n]
		p.head = 0
	}
	p.buf = append(p.buf, v)
	i := len(p.buf) - 1
	for i > p.head && p.buf[i-1] > v {
		p.buf[i] = p.buf[i-1]
		i--
	}
	p.buf[i] = v
}

// NewCore builds a core over the given private hierarchy. It panics on
// invalid parameters (a configuration bug, not a runtime condition).
func NewCore(params CoreParams, hier *memsim.Hierarchy) *Core {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Core{params: params, hier: hier, burstLimit: math.Inf(1)}
}

// reshape rebuilds c in place as NewCore(params, hier) builds one, over
// its own hierarchy reshaped for mem in front of shared (see
// memsim.Hierarchy.Reshape). The pools and the threads' load FIFOs keep
// their arrays. The caller has validated params.
func (c *Core) reshape(params CoreParams, mem memsim.MemParams, shared *memsim.Shared) {
	c.hier.Reshape(mem, shared)
	c.params = params
	c.threads = c.threads[:0]
	c.demand.reset()
	c.prefetch.reset()
	c.burstLimit = math.Inf(1)
}

// Hierarchy returns the core's private memory hierarchy.
func (c *Core) Hierarchy() *memsim.Hierarchy { return c.hier }

// Run executes one or two streams to completion on the core's SMT
// contexts, starting at cycle 0, and returns the timing summary. It is a
// convenience wrapper for single-core experiments; multi-core runs are
// driven by System, which interleaves cores itself.
func (c *Core) Run(streams ...Stream) CoreResult {
	c.burstLimit = math.Inf(1) // standalone run: no cross-core horizon
	c.Begin(streams...)
	for {
		t := c.nextThread()
		if t == nil {
			break
		}
		c.Step(t)
	}
	return c.Collect()
}

// Begin installs fresh streams on the core's SMT contexts starting at
// cycle 0. One stream is single-threaded execution; two streams are SMT
// siblings. Pools are cleared; the hierarchy's caches retain their
// (possibly warmed) state.
func (c *Core) Begin(streams ...Stream) { c.BeginAt(0, streams...) }

// BeginAt is Begin with an explicit start time, used to chain pipeline
// phases on one core: the next phase starts where the previous ended.
func (c *Core) BeginAt(start float64, streams ...Stream) {
	if len(streams) < 1 || len(streams) > 2 {
		panic(fmt.Sprintf("cpusim: Begin with %d streams", len(streams)))
	}
	c.threads = c.threads[:0]
	for i, s := range streams {
		t := &c.thrStore[i]
		loads := t.loads[:0] // keep the FIFO's backing array across phases
		*t = thread{stream: s, now: start, start: start, spanEnd: start, spanIssue: true, loads: loads}
		c.threads = append(c.threads, t)
	}
	// burstLimit is deliberately left alone: BeginAt runs inside a
	// runStates burst when phases chain, and the horizon must survive
	// the phase boundary.
	c.demand.reset()
	c.prefetch.reset()
}

// Done reports whether all contexts have drained their streams.
func (c *Core) Done() bool {
	for _, t := range c.threads {
		if !t.done {
			return false
		}
	}
	return true
}

// NextTime returns the simulated time at which the core wants to issue its
// next op, or false when finished. System uses it for earliest-first
// interleaving across cores.
func (c *Core) NextTime() (float64, bool) {
	t := c.nextThread()
	if t == nil {
		return 0, false
	}
	return t.now, true
}

// StepEarliest advances the core's earliest runnable context by one op.
func (c *Core) StepEarliest() {
	if t := c.nextThread(); t != nil {
		c.Step(t)
	}
}

// Collect returns the timing summary of the current/finished run.
func (c *Core) Collect() CoreResult {
	res := CoreResult{Threads: make([]ThreadResult, len(c.threads))}
	for i, t := range c.threads {
		res.Threads[i] = ThreadResult{
			Cycles:        t.now,
			Issued:        t.issued,
			StallCycles:   t.stallCyc,
			ComputeCycles: t.computeCy,
		}
		if t.now > res.Cycles {
			res.Cycles = t.now
		}
	}
	return res
}

// nextThread returns the runnable context with the smallest clock (ties
// go to the lower index, as a front-to-back scan would give). It is
// specialized for the only legal shapes — zero, one, or two contexts —
// because it runs once per simulated op.
func (c *Core) nextThread() *thread {
	switch len(c.threads) {
	case 1:
		if t := c.threads[0]; !t.done {
			return t
		}
	case 2:
		a, b := c.threads[0], c.threads[1]
		switch {
		case a.done && b.done:
		case a.done:
			return b
		case b.done:
			return a
		case b.now < a.now:
			return b
		default:
			return a
		}
	}
	return nil
}

func (c *Core) sibling(t *thread) *thread {
	for _, o := range c.threads {
		if o != t {
			return o
		}
	}
	return nil
}

// contention returns the issue-slowdown factor in [1, 2] imposed by the
// sibling context. A sibling inside a memory-stall span costs nothing —
// its slots are donated (the SMT effect MP-HT exploits). An active
// sibling costs in proportion to its pipeline duty cycle: a compute-bound
// sibling (duty ≈ 1) halves throughput, a memory-bound sibling that only
// issues a few ops between stalls (duty ≈ 0.2) costs ~20%.
func (c *Core) contention(t *thread) float64 {
	sib := c.sibling(t)
	if sib == nil || sib.done {
		return 1
	}
	if sib.now > t.now && !sib.spanIssue {
		// Sibling's clock is ahead because it is waiting on memory.
		return 1
	}
	return 1 + sib.duty()
}

// Step executes one op from thread t.
//
// Timing rules (see DESIGN.md §5):
//   - every op pays 1/width issue cycles (width halves under contention);
//   - OpCompute additionally pays its Cost (doubled under contention);
//   - OpStore updates cache state and never stalls (write buffering);
//   - OpLoad and OpPrefetch take the per-line path, stepGather, which
//     issues each line they cover (one when Lines is 0 or 1).
func (c *Core) Step(t *thread) {
	prevNow := t.now
	if t.gatherLeft > 0 {
		// Resume a suspended burst without touching the stream.
		c.stepGather(t)
		c.finishStep(t, prevNow)
		return
	}
	op := &c.op
	if !t.stream.Next(op) {
		// Drain: completion waits for the thread's outstanding loads.
		if t.loadSize() > 0 {
			if last := t.loads[len(t.loads)-1].completeAt; last > t.now {
				t.stallCyc += last - t.now
				t.now = last
			}
			t.loads = t.loads[:0]
			t.loadHead = 0
		}
		t.done = true
		return
	}
	switch op.Kind {
	case OpLoad, OpPrefetch:
		t.gatherAddr = op.Addr
		t.gatherLeft = max(op.Lines, 1)
		t.gatherPf = op.Kind == OpPrefetch
		if t.gatherPf {
			t.gatherHint = op.Hint
			if !t.gatherHint.IsPrefetch() {
				t.gatherHint = memsim.KindPrefetchL1
			}
		}
		c.stepGather(t)

	case OpCompute:
		factor := c.issue(t)
		cost := op.Cost * factor
		t.now += cost
		t.activeCyc += cost
		t.computeCy += cost

	case OpStore:
		c.issue(t)
		c.hier.Access(int64(t.now), op.Addr, memsim.KindStore)

	default:
		panic(fmt.Sprintf("cpusim: unknown op kind %d", op.Kind))
	}
	c.finishStep(t, prevNow)
}

// issue pays one op's (or one line's) issue cycles at the width the
// sibling leaves free and returns the contention factor it used.
func (c *Core) issue(t *thread) float64 {
	t.seq++
	t.issued++
	factor := c.contention(t)
	t.spanIssue = true
	issueCyc := 1 / (c.params.IssueWidth / factor)
	t.now += issueCyc
	t.activeCyc += issueCyc
	return factor
}

// finishStep closes one Step: span bookkeeping plus the monotonic-clock
// assertion. Per-thread event times are monotonic: every Step rule only
// ever advances the clock, and the aggregation above (phase chaining,
// fixed-point iteration) depends on it. The Enabled guard keeps the
// variadic boxing off the disabled hot path (zero-alloc guards).
func (c *Core) finishStep(t *thread, prevNow float64) {
	t.spanEnd = t.now
	if check.Enabled {
		check.Assert(t.now >= prevNow && !math.IsNaN(t.now),
			"cpusim: thread clock moved backwards (%g -> %g)", prevNow, t.now)
	}
}

// execLoad runs one demand-load line: hierarchy access, fill-buffer and
// MLP admission, then window occupancy — retire completed loads and
// stall if the oldest incomplete one is too far behind.
func (c *Core) execLoad(t *thread, addr memsim.Addr, window int) {
	res := c.hier.Access(int64(t.now), addr, memsim.KindLoad)
	if res.Latency > c.params.PipelinedLatency {
		completeAt := t.now + float64(res.Latency)
		c.demand.drainBefore(t.now)
		c.prefetch.drainBefore(t.now)
		if c.demand.size() >= c.params.DemandMLP {
			c.stallUntil(t, c.demand.front())
			c.demand.popFront()
		}
		if c.demand.size()+c.prefetch.size() >= c.params.FillBuffers {
			c.stallUntil(t, c.earliestFill())
			c.popEarliestFill()
		}
		c.demand.insert(completeAt)
		t.pushLoad(inflightLoad{completeAt: completeAt, seq: t.seq})
	}
	t.trimLoads()
	if t.loadSize() > 0 && t.seq-t.loads[t.loadHead].seq >= int64(window) {
		c.stallUntil(t, t.loads[t.loadHead].completeAt)
		t.popLoad()
	}
}

// execPrefetch runs one software-prefetch line: it occupies the
// prefetch pool (backpressure when the fill buffers are full) but never
// the instruction window.
func (c *Core) execPrefetch(t *thread, addr memsim.Addr, hint memsim.AccessKind) {
	res := c.hier.Access(int64(t.now), addr, hint)
	if res.Latency > c.params.PipelinedLatency {
		c.demand.drainBefore(t.now)
		c.prefetch.drainBefore(t.now)
		if c.demand.size()+c.prefetch.size() >= c.params.FillBuffers {
			c.stallUntil(t, c.earliestFill())
			c.popEarliestFill()
		}
		c.prefetch.insert(t.now + float64(res.Latency))
	}
}

// stepGather advances a load or prefetch line by line; it is the only
// path either takes, so a one-line op is a burst of one. Each line pays
// issue cycles at the current contention factor, then the demand rules
// (execLoad: window and fill-buffer stalls) or the prefetch rules
// (execPrefetch: fill buffers only). Between lines it suspends exactly
// where a per-line op stream would have run someone else: when
// nextThread picks the SMT sibling, or when the clock passes the
// cross-core burstLimit. The remaining lines resume on the next Step.
func (c *Core) stepGather(t *thread) {
	for {
		factor := c.issue(t)
		if t.gatherPf {
			c.execPrefetch(t, t.gatherAddr, t.gatherHint)
		} else {
			c.execLoad(t, t.gatherAddr, int(float64(c.params.WindowSize)/factor))
		}
		t.gatherAddr += memsim.LineSize
		t.gatherLeft--
		if t.gatherLeft == 0 {
			return
		}
		if t.now > c.burstLimit || c.nextThread() != t {
			return
		}
	}
}

// earliestFill returns the soonest completion time across both fill
// pools (the pools are non-empty in aggregate when called).
func (c *Core) earliestFill() float64 {
	switch {
	case c.demand.size() == 0:
		return c.prefetch.front()
	case c.prefetch.size() == 0:
		return c.demand.front()
	case c.demand.front() <= c.prefetch.front():
		return c.demand.front()
	default:
		return c.prefetch.front()
	}
}

// popEarliestFill removes the entry earliestFill returned.
func (c *Core) popEarliestFill() {
	switch {
	case c.demand.size() == 0:
		c.prefetch.popFront()
	case c.prefetch.size() == 0:
		c.demand.popFront()
	case c.demand.front() <= c.prefetch.front():
		c.demand.popFront()
	default:
		c.prefetch.popFront()
	}
}

// stallUntil advances t to wake (if in the future), accounting the stall
// and marking the span as non-issuing so the sibling inherits the slots.
func (c *Core) stallUntil(t *thread, wake float64) {
	if wake > t.now {
		t.stallCyc += wake - t.now
		t.now = wake
		t.spanIssue = false
	}
}

func (t *thread) loadSize() int { return len(t.loads) - t.loadHead }

// pushLoad appends to the in-flight FIFO, compacting the consumed head
// space first when the backing array is full (same policy as
// fillPool.insert: the memmove happens once per wrap, not per retire).
func (t *thread) pushLoad(l inflightLoad) {
	if t.loadHead > 0 && len(t.loads) == cap(t.loads) {
		n := copy(t.loads, t.loads[t.loadHead:])
		t.loads = t.loads[:n]
		t.loadHead = 0
	}
	t.loads = append(t.loads, l)
}

// popLoad drops the FIFO's front (an index bump, not a memmove).
func (t *thread) popLoad() {
	t.loadHead++
	if t.loadHead == len(t.loads) {
		t.loads = t.loads[:0]
		t.loadHead = 0
	}
}

// trimLoads retires loads completed by now (the FIFO ascends in
// completeAt order only approximately — it ascends in seq; completion
// times are whatever the hierarchy returned — so it stops at the first
// still-outstanding entry, exactly like the copy-based version).
func (t *thread) trimLoads() {
	h := t.loadHead
	for h < len(t.loads) && t.loads[h].completeAt <= t.now {
		h++
	}
	if h == len(t.loads) {
		t.loads = t.loads[:0]
		t.loadHead = 0
		return
	}
	t.loadHead = h
}
