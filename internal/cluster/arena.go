package cluster

// Per-run arena reuse (DESIGN.md §14). One closed-loop Simulate call
// allocates a few dozen slices — the per-node queue set, the sub/copy
// schedules, and the phase-1/phase-3 scratch — and the callers that
// matter (SweepReplication, the experiment registry, parameter sweeps
// in the CLIs) run thousands of simulations per process, so the
// steady-state allocation rate is pure churn. The arena keeps one
// run's working set alive on a free list and the next run re-slices it:
// acquire at entry, recapture whatever grew, release at exit.
//
// Correctness is the same argument everywhere: a reused buffer is
// either fully overwritten before it is read (nows, firstSub, the
// pre-draw splits — drawQuery zeroes its own cold slice), explicitly
// re-zeroed here (the active set, partition scratch), or re-sliced to
// length zero and only appended to (subs, copies, latencies, queries).
// Queue and wheel objects reset through their Reset hooks
// (serve.Queue.Reset, eventq.Wheel.Reset). Nothing observable escapes:
// the free list is guarded by a mutex, each concurrent run owns its
// arena exclusively between acquire and release, and a run that errors
// out simply never releases (the arena is garbage-collected).
//
// The AllocsPerRun guards in arena_test.go pin the steady state.

import (
	"sync"

	"dlrmsim/internal/eventq"
	"dlrmsim/internal/serve"
)

// runArena is one simulation run's recyclable working set. Fields are
// capacity carriers only — every run re-establishes length and
// contents before reading.
type runArena struct {
	queues    []*serve.Queue
	subs      []subState
	copies    []subCopy
	cold      []int
	nows      []float64
	firstSub  []int
	latencies []float64
	preHot    []int
	preCold   []int
	scratch   []partScratch

	// Open-loop extras.
	queries  []openQuery
	eff      []int
	active   []bool
	violated map[int]bool
	ring     []openArrival
	ringCold []int
	win      []subCopy
	efStart  []float64
	efHist   [][]efEntry

	// Robustness-tier state (chaos.go, adapt.go): held by value so the
	// per-node and per-window slices inside recycle with the arena, and
	// the recovery-observability minute buckets.
	chaosSt chaosState
	adaptSt adaptState
	ttrArr  []int
	ttrGood []int

	// Recycled copy wheels (their 4096 buckets dominate the open loop's
	// fixed cost).
	copyQueues []*eventq.Wheel[subCopy]
}

var (
	arenaMu   sync.Mutex
	arenaFree []*runArena
)

// acquireArena pops a recycled arena or builds a fresh one. The caller
// owns it exclusively until release.
func acquireArena() *runArena {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	if n := len(arenaFree); n > 0 {
		a := arenaFree[n-1]
		arenaFree[n-1] = nil
		arenaFree = arenaFree[:n-1]
		return a
	}
	return &runArena{}
}

// release returns the arena to the free list. The caller must have
// recaptured any slice that grew past its arena field first.
func (a *runArena) release() {
	arenaMu.Lock()
	arenaFree = append(arenaFree, a)
	arenaMu.Unlock()
}

// arenaSlice returns (*buf)[:n] with fresh capacity when needed. The
// contents are UNSPECIFIED — callers must overwrite before reading.
func arenaSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// chaosFor materializes a chaos schedule into the arena's recycled
// chaos state.
func (a *runArena) chaosFor(sched *ChaosSchedule, nodes int) *chaosState {
	a.chaosSt.init(sched, nodes)
	return &a.chaosSt
}

// adaptFor resets the arena's recycled adaptive-mitigation state for a
// default-applied policy.
func (a *runArena) adaptFor(m *Mitigation, nodes int) *adaptState {
	a.adaptSt.init(m, nodes)
	return &a.adaptSt
}

// ttrBuckets returns zeroed arrival/goodput minute buckets for the
// recovery-time scan.
func (a *runArena) ttrBuckets(n int) (arr, good []int) {
	arr = arenaSlice(&a.ttrArr, n)
	good = arenaSlice(&a.ttrGood, n)
	for i := 0; i < n; i++ {
		arr[i], good[i] = 0, 0
	}
	return arr, good
}

// queueSet returns plan-sized per-node FCFS queues, recycling queue
// objects through serve.Queue.Reset and building only the missing ones.
func (a *runArena) queueSet(nodes, servers int) []*serve.Queue {
	if cap(a.queues) < nodes {
		old := a.queues
		a.queues = make([]*serve.Queue, nodes)
		copy(a.queues, old)
	}
	a.queues = a.queues[:nodes]
	for n := range a.queues {
		if a.queues[n] == nil {
			a.queues[n] = serve.NewQueue(servers)
		} else {
			a.queues[n].Reset(servers)
		}
	}
	return a.queues
}

// partScratchSet returns parts partition-scratch slots with their
// grown delta/copy buffers intact and their per-window state cleared.
func (a *runArena) partScratchSet(parts int) []partScratch {
	if cap(a.scratch) < parts {
		old := a.scratch
		a.scratch = make([]partScratch, parts)
		copy(a.scratch, old)
	}
	a.scratch = a.scratch[:parts]
	for p := range a.scratch {
		ps := &a.scratch[p]
		ps.copies = ps.copies[:0]
		ps.deltas = ps.deltas[:0]
		ps.maxWait = 0
		ps.pendPrim, ps.pendCond, ps.maxT = 0, 0, 0
	}
	return a.scratch
}

// boolSet returns an n-length all-false slice.
func (a *runArena) boolSet(n int) []bool {
	if cap(a.active) < n {
		a.active = make([]bool, n)
	}
	a.active = a.active[:n]
	for i := range a.active {
		a.active[i] = false
	}
	return a.active
}

// violatedMap returns an empty minute→violated map, reusing the
// previous run's buckets.
func (a *runArena) violatedMap() map[int]bool {
	if a.violated == nil {
		a.violated = make(map[int]bool)
	} else {
		clear(a.violated)
	}
	return a.violated
}

// efHistSet returns nodes earliest-free history slots, keeping each
// node's grown entry buffer. Every window truncates each history before
// appending, so stale entries are never read.
func (a *runArena) efHistSet(nodes int) [][]efEntry {
	if cap(a.efHist) < nodes {
		old := a.efHist
		a.efHist = make([][]efEntry, nodes)
		copy(a.efHist, old)
	}
	a.efHist = a.efHist[:nodes]
	return a.efHist
}

// copyQueueSet returns n empty copy wheels, recycling instances. Both
// drivers drain their wheels completely before finishing, so a recycled
// wheel is already empty; Reset rebases it to time zero because its
// monotone-pop watermark survives draining.
func (a *runArena) copyQueueSet(n int) []*eventq.Wheel[subCopy] {
	if cap(a.copyQueues) < n {
		old := a.copyQueues
		a.copyQueues = make([]*eventq.Wheel[subCopy], n)
		copy(a.copyQueues, old)
	}
	a.copyQueues = a.copyQueues[:n]
	for i, w := range a.copyQueues {
		if w == nil {
			a.copyQueues[i] = newCopyWheel()
		} else {
			w.Reset(0)
		}
	}
	return a.copyQueues
}
