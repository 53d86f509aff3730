package cluster

// Per-run arena reuse (DESIGN.md §14). One Simulate call needs a few
// dozen slices — the per-node queue set, the sub schedule, the copy
// heap and its chains, fault timelines, and the join scratch — and the
// callers that matter (SweepReplication, the experiment registry,
// parameter sweeps in the CLIs) run thousands of simulations per
// process, so the steady-state allocation rate is pure churn. The arena
// keeps one run's working set alive on a free list and the next run
// re-slices it: acquire at entry, recapture whatever grew, release at
// exit.
//
// Correctness is the same argument everywhere: a reused buffer is
// either fully overwritten before it is read (the pre-draw ring —
// drawArrival zeroes its own cold slice), explicitly re-zeroed or
// rewound here and in the init methods (the active set, fault
// timelines, adaptive state, the latency sketch), or re-sliced to length
// zero and only appended to (subs, join records, samples, copy chains
// and their free lists).
// Queue objects reset through serve.Queue.Reset and the copy heap
// through copyHeap.reset. Nothing observable escapes:
// the free list is guarded by a mutex, each concurrent run owns its
// arena exclusively between acquire and release, and a run that errors
// out simply never releases (the arena is garbage-collected).
//
// The AllocsPerRun guards in arena_test.go pin the steady state.

import (
	"sync"

	"dlrmsim/internal/serve"
	"dlrmsim/internal/stats"
)

// runArena is one simulation run's recyclable working set. Fields are
// capacity carriers only — every run re-establishes length and
// contents before reading.
type runArena struct {
	queues    []*serve.Queue
	subs      []subState
	freeSubs  []int
	joins     []openJoinRec
	freeJoins []int
	latencies []float64
	shares    []float64
	sketch    stats.QuantileSketch
	eff       []int
	active    []bool
	violated  map[int]bool
	ring      []openArrival
	ringCold  []int
	copies    copyHeap
	chain     []subCopy
	freeChain []int32

	// Robustness-tier state (faults.go, chaos.go, adapt.go): held by
	// value so the per-node slices inside recycle with the arena, and
	// the recovery-observability minute buckets.
	faultSt faultState
	adaptSt adaptState
	ttrArr  []int
	ttrGood []int
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

// faultFor rewinds the arena's recycled per-node fault timelines for a
// validated config's fault model and chaos schedule.
func (a *runArena) faultFor(cfg *Config, nodes int) *faultState {
	a.faultSt.init(cfg, nodes)
	return &a.faultSt
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

// copyQueue returns the recycled copy heap, emptied and with its
// monotone-pop watermark cleared.
func (a *runArena) copyQueue() *copyHeap {
	a.copies.reset()
	return &a.copies
}
