package cluster

// Execution-backend selection (DESIGN.md §14): how one simulation run
// spends its cores. Every run is the one event loop (openloop.go's
// loop), which serves copies in copyCmp order on the calling goroutine.
// What parallelizes is the arrival pre-draw: the loop takes its
// arrivals from a ring, and each arrival's lookup draws — the dominant
// per-event cost — are pure functions of (Seed, q, user, visit), so
// under Parallel(P) a block of them is drawn on P goroutines while the
// arrival times and user attributions are still pulled sequentially
// from their shared streams. Any partitioning yields identical draws
// (independent RNG lanes via stats.SplitSeed), so the output is
// byte-identical to Sequential at any P.

import "sync"

// ExecBackend names one execution strategy for a single run. The zero
// value is Sequential.
type ExecBackend struct {
	shards int
}

// Sequential is the default single-goroutine execution backend.
var Sequential = ExecBackend{}

// Parallel returns the backend that draws arrivals on the given number
// of goroutines. Parallel(1) and values below 1 degrade to Sequential.
func Parallel(shards int) ExecBackend {
	return ExecBackend{shards: shards}
}

// Shards returns the backend's goroutine count (1 for Sequential).
func (b ExecBackend) Shards() int {
	if b.shards < 1 {
		return 1
	}
	return b.shards
}

// execBackend is the process-wide execution backend: the CLIs set it
// once at startup, the differential suite flips it around whole registry
// renders, and callers must not run simulations concurrently with
// different backends.
var execBackend = Sequential

// SetExecBackend overrides the execution backend and returns a restore
// func.
func SetExecBackend(b ExecBackend) (restore func()) {
	prev := execBackend
	execBackend = b
	return func() { execBackend = prev }
}

// execParts resolves the effective pre-draw goroutine count for a
// fleet: never more than its nodes, so a toy fleet stays on one
// goroutine.
func execParts(nodes int) int {
	p := execBackend.Shards()
	if p > nodes {
		p = nodes
	}
	if p < 1 {
		p = 1
	}
	return p
}

// openArrival is one pre-drawn ring entry: the arrival's instant, user
// attribution, and lookup split (its per-owner cold counts live in the
// flat ring buffer alongside).
type openArrival struct {
	t     float64
	user  uint64
	visit int
	hot   int
	warm  int
}

// openPredrawBlock is the pre-draw ring's refill granularity.
var openPredrawBlock = 256

// ringFill refills the pre-draw ring: arrival times and user
// attributions pulled sequentially from the shared streams, lookup
// splits drawn on parts goroutines (caller included) for the entries
// before the horizon (the rest are never processed). Ring entry i is
// arrival number r.q+i — the ring only refills when fully drained, so
// the base index is the live counter.
func (r *openRun) ringFill(parts int) {
	n := openPredrawBlock
	arenaSlice(&r.ring, n)
	arenaSlice(&r.ringCold, n*r.plan.Nodes) // sized apart: a recycled ring may come from a smaller fleet
	live := n
	for i := range r.ring {
		a := &r.ring[i]
		a.t = r.arrivals.Next()
		a.user, a.visit = uint64(r.q+i), 1
		if r.visitors != nil {
			a.user, a.visit = r.visitors.Next()
		}
		if a.t >= r.o.DurationMs && live == n {
			live = i
		}
	}
	// The goroutines take every value as an argument: a variable a
	// closure captured would escape, and cost an allocation per refill
	// at P = 1 too.
	chunk := (live + parts - 1) / parts
	if parts > 1 && chunk < live {
		for lo := chunk; lo < live; lo += chunk {
			r.ringWG.Add(1)
			go r.drawRing(lo, min(lo+chunk, live), &r.ringWG)
		}
		r.drawRing(0, chunk, nil)
		r.ringWG.Wait()
	} else {
		r.drawRing(0, live, nil)
	}
	r.ringHead = 0
	r.nextArr = r.ring[0].t
}

// drawRing draws the lookups of ring entries [lo, hi), then marks wg
// done if it is set.
func (r *openRun) drawRing(lo, hi int, wg *sync.WaitGroup) {
	nodes := r.plan.Nodes
	for i := lo; i < hi; i++ {
		a := &r.ring[i]
		a.hot, a.warm = r.drawArrival(r.q+i, a.user, a.visit, r.ringCold[i*nodes:(i+1)*nodes])
	}
	if wg != nil {
		wg.Done()
	}
}
