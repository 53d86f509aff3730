package hetsched

import (
	"math"

	"dlrmsim/internal/check"
	"dlrmsim/internal/eventq"
	"dlrmsim/internal/serve"
	"dlrmsim/internal/stats"
)

// Config describes one heterogeneous scheduling simulation: a request
// stream of identical typed phase graphs, a fleet of devices, and a
// placement policy.
type Config struct {
	// Graph is the phase DAG every request instantiates (DLRMGraph for
	// the standard inference shape).
	Graph Graph
	// Devices is the fleet (NewMix for the named ones).
	Devices []DeviceSpec
	// Policy places ready phases onto devices.
	Policy Policy
	// MeanArrivalMs is the mean inter-arrival time of the Poisson
	// request stream.
	MeanArrivalMs float64
	// Requests is the number of requests to simulate (default 2000).
	Requests int
	// WarmupRequests are excluded from the latency metrics. 0 means
	// unset (default 5% of Requests); -1 requests explicitly zero warmup.
	WarmupRequests int
	// JitterFrac multiplies each batch's service time by exp(J·N(0,1)),
	// as in internal/serve. 0 disables jitter — and makes EFT's service
	// estimates exact.
	JitterFrac float64
	// Seed drives arrivals and jitter; every stream is derived
	// statelessly from it via stats.SplitSeed.
	Seed uint64
}

func (c *Config) applyDefaults() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Requests == 0 {
		c.Requests = 2000
	}
	switch {
	case c.WarmupRequests == 0:
		c.WarmupRequests = c.Requests / 20
	case c.WarmupRequests == -1:
		c.WarmupRequests = 0
	}
	return nil
}

// Result summarizes one scheduling run.
type Result struct {
	// P50, P95, P99, Mean are end-to-end request latencies in ms
	// (ready-queue wait + service across the whole phase graph),
	// post-warmup.
	P50, P95, P99, Mean float64
	// ThroughputQPS is post-warmup completed requests per second of
	// simulated time.
	ThroughputQPS float64
	// MeanPhaseWaitMs is the mean time a post-warmup phase spent between
	// becoming ready and starting service.
	MeanPhaseWaitMs float64
	// MeanBatchItems is the mean number of phases served per launch on
	// batching-capable devices (MaxBatch > 1); 0 when the fleet has none.
	MeanBatchItems float64
	// Steals counts phases moved between devices by the Steal policy
	// (both idle-device steals and enqueue-time diversions).
	Steals int
	// Util is each device class's busy time over its capacity for the
	// run (0 for classes absent from the fleet); UtilTotal is the
	// fleet-wide figure.
	Util      [NumClasses]float64
	UtilTotal float64
	// CrossKindOverlapMs is the total time SMT sibling pairs spent
	// concurrently running *different* phase kinds — the colocation the
	// paper's MP-HT scheme engineers. SameKindOverlapMs is the contended
	// complement.
	CrossKindOverlapMs, SameKindOverlapMs float64
}

// phase instance ids are req*len(Graph.Phases)+phaseIndex, int32 to keep
// the queues compact.
type simState struct {
	cfg   Config
	specs []DeviceSpec
	nPh   int
	succ  [][]int32 // graph successors, shared by every request
	plan  *affinityPlan

	// per phase instance
	depsLeft []int8
	readyAt  []float64
	doneAt   []float64

	// per request
	arrivals   []float64
	phasesLeft []int8
	finish     []float64

	// per device
	pend      [][]int32 // ready-phase FIFO (index 0 is the head)
	pendEstMs []float64 // summed service estimates of the queue (EFT)
	busy      []bool
	busyStart []float64
	busyEnd   []float64
	busyKind  []PhaseKind
	holdArmed []bool
	holdAt    []float64
	svcSeq    []uint64  // per-device jitter stream position
	devSeed   []uint64  // per-device jitter seed
	prevEnd   []float64 // invariant: device clocks are monotone
	busyMs    []float64
	timers    *eventq.Heap[devTimer] // live device events
	devGen    []uint32               // per-device timer generation (stale-entry filter)
	batchOf   [][]int32              // each device's in-flight batch members
	doneBatch []int32                // completion scratch: batchOf may be re-launched
	// (and its backing array reused) by the dispatches a completion
	// triggers, so the finished members are copied out first.

	steals               int
	batches, batchItems  int // launches/items on MaxBatch>1 devices
	waitSumMs            float64
	waitCount            int
	crossOverlap         float64
	sameOverlap          float64
	completed, postCount int
	lastFinish           float64
}

const (
	seedArrivals = 0x8E7A1
	seedJitter   = 0x8E7B3
)

func newSimState(cfg Config) (*simState, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	nPh := len(cfg.Graph.Phases)
	nDev := len(cfg.Devices)
	st := &simState{
		cfg:   cfg,
		specs: cfg.Devices,
		nPh:   nPh,
		plan:  buildAffinity(cfg.Devices, cfg.Graph),

		depsLeft: make([]int8, cfg.Requests*nPh),
		readyAt:  make([]float64, cfg.Requests*nPh),
		doneAt:   make([]float64, cfg.Requests*nPh),

		arrivals:   make([]float64, cfg.Requests),
		phasesLeft: make([]int8, cfg.Requests),
		finish:     make([]float64, cfg.Requests),

		pend:      make([][]int32, nDev),
		pendEstMs: make([]float64, nDev),
		busy:      make([]bool, nDev),
		busyStart: make([]float64, nDev),
		busyEnd:   make([]float64, nDev),
		busyKind:  make([]PhaseKind, nDev),
		holdArmed: make([]bool, nDev),
		holdAt:    make([]float64, nDev),
		svcSeq:    make([]uint64, nDev),
		devSeed:   make([]uint64, nDev),
		prevEnd:   make([]float64, nDev),
		busyMs:    make([]float64, nDev),
		timers:    newDevTimers(nDev),
		devGen:    make([]uint32, nDev),
		batchOf:   make([][]int32, nDev),
	}
	st.succ = make([][]int32, nPh)
	maxBatch := 1
	for d, spec := range cfg.Devices {
		st.devSeed[d] = stats.SplitSeed(cfg.Seed^seedJitter, uint64(d))
		st.batchOf[d] = make([]int32, 0, spec.maxBatch())
		if mb := spec.maxBatch(); mb > maxBatch {
			maxBatch = mb
		}
	}
	st.doneBatch = make([]int32, 0, maxBatch)
	for i, p := range cfg.Graph.Phases {
		for _, dep := range p.Deps {
			st.succ[dep] = append(st.succ[dep], int32(i))
		}
	}
	arr := stats.NewRNG(stats.SplitSeed(cfg.Seed^seedArrivals, 0))
	var now float64
	for q := 0; q < cfg.Requests; q++ {
		now += arr.ExpFloat64() * cfg.MeanArrivalMs
		st.arrivals[q] = now
		st.phasesLeft[q] = int8(nPh)
		for i, p := range cfg.Graph.Phases {
			st.depsLeft[q*nPh+i] = int8(len(p.Deps))
		}
	}
	return st, nil
}

// estSvcMs is the policy-side service estimate for one phase on one
// device: the marginal cost plus the fixed cost amortized over a full
// batch. Deliberately optimistic and deliberately incomplete: it assumes
// every batch fills (a lone phase on a MaxBatch-32 device really pays
// the whole launch cost), knows nothing about SMT sibling contention,
// and nothing about the jitter a service draw will actually see — those
// blind spots are what the other policies exploit.
func (st *simState) estSvcMs(d int, k PhaseKind, workUs float64) float64 {
	spec := &st.specs[d]
	return (spec.FixedUs[k]/float64(spec.maxBatch()) + spec.Speed[k]*workUs) / 1e3
}

// ready dispatches one just-ready phase instance per the policy and
// launches the chosen device if it can start. Hot path: zero allocations
// in steady state (guarded by TestDispatchZeroAlloc).
func (st *simState) ready(p int32, t float64) {
	st.readyAt[p] = t
	k := st.cfg.Graph.Phases[int(p)%st.nPh].Kind
	workUs := st.cfg.Graph.Phases[int(p)%st.nPh].WorkUs
	var d int
	switch st.cfg.Policy {
	case EFT:
		best := math.Inf(1)
		d = -1
		for e := range st.specs {
			if !st.specs[e].can(k) {
				continue
			}
			free := t
			if st.busy[e] {
				free = st.busyEnd[e]
			}
			est := free + st.pendEstMs[e] + st.estSvcMs(e, k, workUs)
			if est < best {
				best, d = est, e
			}
		}
	case Steal:
		d = st.plan.pick(k)
		if st.busy[d] || len(st.pend[d]) > 0 {
			// Divert to an idle device with an empty queue that can run
			// the phase — work sharing before the queue even forms.
			for e := range st.specs {
				if e != d && !st.busy[e] && len(st.pend[e]) == 0 && st.specs[e].can(k) {
					d = e
					st.steals++
					break
				}
			}
		}
	default: // Affinity
		d = st.plan.pick(k)
	}
	st.enqueue(d, p, t)
}

func (st *simState) enqueue(d int, p int32, t float64) {
	st.pend[d] = append(st.pend[d], p)
	ph := &st.cfg.Graph.Phases[int(p)%st.nPh]
	st.pendEstMs[d] += st.estSvcMs(d, ph.Kind, ph.WorkUs)
	if !st.busy[d] {
		st.maybeStart(d, t)
	}
}

// maybeStart launches a batch on an idle device, or arms the batching
// hold window when the device prefers to wait for a fuller batch.
func (st *simState) maybeStart(d int, t float64) {
	if st.busy[d] || len(st.pend[d]) == 0 {
		return
	}
	spec := &st.specs[d]
	mb := spec.maxBatch()
	q := st.pend[d]
	k := st.cfg.Graph.Phases[int(q[0])%st.nPh].Kind
	n := 0
	for _, p := range q {
		if st.cfg.Graph.Phases[int(p)%st.nPh].Kind == k {
			n++
			if n == mb {
				break
			}
		}
	}
	if n < mb && spec.HoldUs > 0 {
		// Wait for the window measured from the oldest pending phase.
		deadline := st.readyAt[q[0]] + spec.HoldUs/1e3
		if t < deadline {
			st.holdArmed[d] = true
			st.holdAt[d] = deadline
			st.timerSet(d, deadline)
			return
		}
	}
	st.holdArmed[d] = false
	st.startBatch(d, t, k, n)
}

// startBatch pulls the first n kind-k phases off d's queue and serves
// them as one batch.
func (st *simState) startBatch(d int, t float64, k PhaseKind, n int) {
	spec := &st.specs[d]
	batch := st.batchOf[d][:0]
	q := st.pend[d]
	w := 0 // write cursor for the phases left behind
	svcUs := spec.FixedUs[k]
	for _, p := range q {
		ph := &st.cfg.Graph.Phases[int(p)%st.nPh]
		if len(batch) < n && ph.Kind == k {
			batch = append(batch, p)
			svcUs += spec.Speed[k] * ph.WorkUs
			st.pendEstMs[d] -= st.estSvcMs(d, ph.Kind, ph.WorkUs)
			if check.Enabled {
				check.Assert(st.depsLeft[p] == 0 && st.readyAt[p] <= t,
					"hetsched: phase %d started at %g before ready (deps %d, ready %g)",
					p, t, st.depsLeft[p], st.readyAt[p])
			}
			req := int(p) / st.nPh
			if req >= st.cfg.WarmupRequests {
				st.waitSumMs += t - st.readyAt[p]
				st.waitCount++
			}
			continue
		}
		q[w] = p
		w++
	}
	st.pend[d] = q[:w]
	st.batchOf[d] = batch
	if w == 0 {
		st.pendEstMs[d] = 0 // clamp float drift on empty queues
	}

	// SMT contention: the factor is fixed at launch from what the
	// sibling thread is running right now — an approximation (the
	// sibling may finish mid-batch), but a deterministic one.
	factor := 1.0
	if s := spec.SMTSibling; s >= 0 && st.busy[s] && st.busyEnd[s] > t {
		same, cross := spec.smtFactors()
		if st.busyKind[s] == k {
			factor = same
		} else {
			factor = cross
		}
	}
	svcMs := svcUs / 1e3 * factor
	if st.cfg.JitterFrac > 0 {
		j := stats.SeededRNG(stats.SplitSeed(st.devSeed[d], st.svcSeq[d]))
		svcMs *= serve.Jitter(st.cfg.JitterFrac, j.NormFloat64())
	}
	st.svcSeq[d]++

	if check.Enabled {
		check.Assert(t >= st.prevEnd[d] && !math.IsNaN(svcMs),
			"hetsched: device %d clock moved backwards (start %g before end %g)", d, t, st.prevEnd[d])
	}
	st.busy[d] = true
	st.busyStart[d] = t
	st.busyEnd[d] = t + svcMs
	st.timerSet(d, st.busyEnd[d])
	st.busyKind[d] = k
	st.prevEnd[d] = t + svcMs
	st.busyMs[d] += svcMs
	if spec.maxBatch() > 1 {
		st.batches++
		st.batchItems += len(batch)
	}
	// Overlap accounting against the sibling's in-flight batch.
	if s := spec.SMTSibling; s >= 0 && st.busy[s] && s != d {
		if ov := math.Min(st.busyEnd[s], st.busyEnd[d]) - t; ov > 0 {
			if st.busyKind[s] == k {
				st.sameOverlap += ov
			} else {
				st.crossOverlap += ov
			}
		}
	}
}

// complete finishes device d's in-flight batch: phases are marked done,
// successors that become ready are dispatched, and the device looks for
// its next batch (stealing one if the policy allows).
func (st *simState) complete(d int, t float64) {
	st.busy[d] = false
	st.timerClear(d)
	st.doneBatch = append(st.doneBatch[:0], st.batchOf[d]...)
	st.batchOf[d] = st.batchOf[d][:0]
	for _, p := range st.doneBatch {
		st.finishPhase(p, t)
	}
	st.maybeStart(d, t)
	if st.cfg.Policy == Steal && !st.busy[d] && len(st.pend[d]) == 0 {
		if st.stealInto(d) {
			st.steals++
			st.maybeStart(d, t)
		}
	}
}

func (st *simState) finishPhase(p int32, t float64) {
	st.doneAt[p] = t
	req := int(p) / st.nPh
	base := req * st.nPh
	for _, s := range st.succ[int(p)%st.nPh] {
		st.depsLeft[base+int(s)]--
		if check.Enabled {
			check.Assert(st.depsLeft[base+int(s)] >= 0,
				"hetsched: phase %d dependency count went negative", base+int(s))
		}
		if st.depsLeft[base+int(s)] == 0 {
			st.ready(int32(base+int(s)), t)
		}
	}
	st.phasesLeft[req]--
	if st.phasesLeft[req] == 0 {
		st.finish[req] = t
		st.completed++
		if t > st.lastFinish {
			st.lastFinish = t
		}
	}
}

// stealInto moves the oldest compatible phase from the most backlogged
// queue onto idle device d. Returns false when nothing stealable exists.
func (st *simState) stealInto(d int) bool {
	src, best := -1, 0
	for e := range st.specs {
		if e != d && len(st.pend[e]) > best {
			src, best = e, len(st.pend[e])
		}
	}
	if src < 0 {
		return false
	}
	q := st.pend[src]
	for i, p := range q {
		ph := &st.cfg.Graph.Phases[int(p)%st.nPh]
		if !st.specs[d].can(ph.Kind) {
			continue
		}
		copy(q[i:], q[i+1:])
		st.pend[src] = q[:len(q)-1]
		est := st.estSvcMs(src, ph.Kind, ph.WorkUs)
		st.pendEstMs[src] -= est
		st.pend[d] = append(st.pend[d], p)
		st.pendEstMs[d] += st.estSvcMs(d, ph.Kind, ph.WorkUs)
		return true
	}
	return false
}

// run processes arrivals and device events in global time order.
func (st *simState) run() {
	next := 0 // next arrival index
	for {
		// Earliest device event: a batch completion or a hold deadline,
		// in (time, device index) order, lowest index winning ties.
		tE, dev := st.nextTimer()
		if check.Enabled {
			sT, sD := st.scanTimer()
			check.Assert(sT == tE && sD == dev,
				"hetsched: timer heap yields (t %g, dev %d), device scan yields (t %g, dev %d)", tE, dev, sT, sD)
		}
		tA := math.Inf(1)
		if next < len(st.arrivals) {
			tA = st.arrivals[next]
		}
		switch {
		case dev < 0 && math.IsInf(tA, 1):
			return
		case tA <= tE:
			base := next * st.nPh
			for i := range st.cfg.Graph.Phases {
				if st.depsLeft[base+i] == 0 {
					st.ready(int32(base+i), tA)
				}
			}
			next++
		case st.busy[dev]:
			st.complete(dev, tE)
		default: // hold window expired: launch with what is queued
			st.holdArmed[dev] = false
			st.timerClear(dev)
			q := st.pend[dev]
			if len(q) > 0 {
				k := st.cfg.Graph.Phases[int(q[0])%st.nPh].Kind
				n := 0
				mb := st.specs[dev].maxBatch()
				for _, p := range q {
					if st.cfg.Graph.Phases[int(p)%st.nPh].Kind == k {
						n++
						if n == mb {
							break
						}
					}
				}
				st.startBatch(dev, tE, k, n)
			}
		}
	}
}

// Simulate runs the discrete-event heterogeneous scheduling simulation:
// Poisson request arrivals, each request an instance of the typed phase
// graph; ready phases are routed by the policy, served in batches per
// device, and a request completes when its last phase does.
//
// The arrival stream and each device's jitter stream are pure functions
// of (Seed, index) via stats.SplitSeed, and the event loop is
// single-threaded with total-order tie-breaking (arrivals before device
// events at equal times, lowest device index first), so the result is a
// pure function of the config — byte-identical at any -workers when run
// under the experiment runner.
func Simulate(cfg Config) (Result, error) {
	st, err := newSimState(cfg)
	if err != nil {
		return Result{}, err
	}
	st.run()
	return st.result(), nil
}

func (st *simState) result() Result {
	cfg := st.cfg
	if check.Enabled {
		for q, left := range st.phasesLeft {
			check.Assert(left == 0, "hetsched: request %d ended with %d phases incomplete", q, left)
		}
	}
	lat := make([]float64, 0, cfg.Requests-cfg.WarmupRequests)
	for q := cfg.WarmupRequests; q < cfg.Requests; q++ {
		lat = append(lat, st.finish[q]-st.arrivals[q])
	}
	pct := stats.Percentiles(lat, 0.50, 0.95, 0.99)
	res := Result{
		P50:                pct[0],
		P95:                pct[1],
		P99:                pct[2],
		Mean:               stats.Mean(lat),
		Steals:             st.steals,
		CrossKindOverlapMs: st.crossOverlap,
		SameKindOverlapMs:  st.sameOverlap,
	}
	if span := st.lastFinish - st.arrivals[cfg.WarmupRequests]; span > 0 {
		res.ThroughputQPS = float64(len(lat)) / span * 1e3
	}
	if st.waitCount > 0 {
		res.MeanPhaseWaitMs = st.waitSumMs / float64(st.waitCount)
	}
	if st.batches > 0 {
		res.MeanBatchItems = float64(st.batchItems) / float64(st.batches)
	}
	var classBusy [NumClasses]float64
	var classDevs [NumClasses]int
	var totalBusy float64
	for d, spec := range st.specs {
		classBusy[spec.Class] += st.busyMs[d]
		classDevs[spec.Class]++
		totalBusy += st.busyMs[d]
	}
	if st.lastFinish > 0 {
		for c := 0; c < NumClasses; c++ {
			if classDevs[c] > 0 {
				res.Util[c] = classBusy[c] / (st.lastFinish * float64(classDevs[c]))
			}
		}
		res.UtilTotal = totalBusy / (st.lastFinish * float64(len(st.specs)))
	}
	if check.Enabled {
		check.Assert(check.Finite(res.P50) && check.Finite(res.P99) && check.Finite(res.Mean) && check.Finite(res.UtilTotal),
			"hetsched: non-finite summary (p50 %g, p99 %g, mean %g, util %g)",
			res.P50, res.P99, res.Mean, res.UtilTotal)
	}
	return res
}

// PerRequestDemandMs estimates the mean fleet work one request generates
// under affinity placement — each phase charged at its affinity subset's
// first device, with the fixed cost amortized over a full batch. A
// sizing heuristic for choosing arrival rates, same role as
// cluster.ArrivalForUtilization.
func PerRequestDemandMs(g Graph, specs []DeviceSpec) float64 {
	plan := buildAffinity(specs, g)
	var sum float64
	for _, p := range g.Phases {
		devs := plan.devs[p.Kind]
		if len(devs) == 0 {
			continue
		}
		spec := &specs[devs[0]]
		sum += (spec.FixedUs[p.Kind]/float64(spec.maxBatch()) + spec.Speed[p.Kind]*p.WorkUs) / 1e3
	}
	return sum
}

// ArrivalForUtilization returns the mean request inter-arrival time that
// loads the fleet to the given utilization under the demand estimate.
func ArrivalForUtilization(g Graph, specs []DeviceSpec, util float64) float64 {
	if util <= 0 {
		util = 0.5
	}
	return PerRequestDemandMs(g, specs) / (float64(len(specs)) * util)
}
