package cluster

// Per-run reuse (DESIGN.md §14). One Simulate call needs a few dozen
// slices — the per-node queue set, the sub schedule, the copy heap and
// its chains, fault timelines, and the join scratch — and the callers
// that matter (SweepReplication, the experiment registry, parameter
// sweeps in the CLIs) run thousands of simulations per process, so the
// steady-state allocation rate is pure churn. A finished openRun is
// therefore the unit of reuse: Simulate releases it onto a free list
// holding only its buffers, and the next newOpenRun pops it and rebuilds
// it around them.
//
// Correctness is the same argument everywhere: a reused buffer is
// either fully overwritten before it is read (the pre-draw blocks —
// drawArrival zeroes its own cold slice), explicitly re-zeroed or
// rewound (the active set, fault timelines, adaptive state, the latency
// sketch, the recovery buckets), or re-sliced to length zero and only
// appended to (subs, join records, samples, copy chains and their free
// lists). Queue objects reset through serve.Queue.Reset, the copy heap
// through copyHeap.reset, and the pre-draw job channel is empty once
// the run's helpers are joined. Nothing observable escapes: the free
// list is guarded by a mutex, each concurrent run owns its openRun
// exclusively between acquire and release, and a run that errors out
// simply never releases (it is garbage-collected).
//
// The AllocsPerRun guards in arena_test.go pin the steady state.

import (
	"slices"
	"sync"

	"dlrmsim/internal/serve"
	"dlrmsim/internal/trace"
)

var (
	runMu   sync.Mutex
	runFree []*openRun
)

// acquireRun pops a released run or builds a fresh one. The caller owns
// it exclusively until release.
func acquireRun() *openRun {
	runMu.Lock()
	defer runMu.Unlock()
	if n := len(runFree); n > 0 {
		r := runFree[n-1]
		runFree[n-1] = nil
		runFree = runFree[:n-1]
		return r
	}
	return &openRun{}
}

// release parks the finished run on the free list. It drops every
// reference that is not a recycled buffer — the config and plan, the
// arrival streams and visitors, the sampler, the autoscaler — so a
// parked run pins nothing but its own buffers.
func (r *openRun) release() {
	r.cfg, r.o, r.plan, r.as = Config{}, nil, nil, nil
	r.arrivals, r.visitors, r.ranks = nil, nil, trace.Ranks{}
	runMu.Lock()
	runFree = append(runFree, r)
	runMu.Unlock()
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

// resetQueues re-slices qs to nodes per-node FCFS queues, recycling
// queue objects through serve.Queue.Reset and building only the missing
// ones.
func resetQueues(qs []*serve.Queue, nodes, servers int) []*serve.Queue {
	if cap(qs) < nodes {
		qs = slices.Grow(qs[:cap(qs)], nodes-cap(qs))
	}
	qs = qs[:nodes]
	for n := range qs {
		if qs[n] == nil {
			qs[n] = serve.NewQueue(servers)
		} else {
			qs[n].Reset(servers)
		}
	}
	return qs
}
