package cluster

// Execution-backend selection (DESIGN.md §14): how one simulation run
// spends its cores. Every run is the one event loop (openloop.go's
// loop), which serves copies in copyCmp order on the calling goroutine.
// What parallelizes is the arrival pre-draw: the loop takes its
// arrivals from blocks of openPredrawBlock entries, and each arrival's
// lookup draws — the dominant per-event cost — are pure functions of
// (Seed, q, user, visit), so they can be computed ahead of the loop.
//
// Under Sequential (and Parallel(1)) the loop fills each block itself
// when the previous one runs dry. Under Parallel(P) the pre-draw is a
// pipeline over two blocks: while the loop serves the front block, P−1
// helper goroutines draw the back one. When the front runs dry the loop
// claims the back block's undrawn chunks itself, waits for the helpers'
// share, swaps the blocks, pulls the next block's arrival times and
// users, and hands it to the helpers.
//
// The output is byte-identical to Sequential at any P:
//   - each entry's draws use their own stats.SplitSeed lanes and write
//     only that entry's slots, so which goroutine drew it, and when,
//     is unobservable;
//   - arrivals.Next and visitors.Next run only on the loop goroutine,
//     in arrival order, and only while no block is being drawn.
//
// Helpers read, through drawArrival, only run state that stays fixed
// from newOpenRun to release: cfg, plan, draws, ranks, pop, affinity
// and profSize, plus the published block they were handed. They never
// touch the streams, the queues or the router state. They start once
// per run (startHelpers) and are joined before loop returns
// (stopHelpers), so none outlives Simulate.

import (
	"sync"
	"sync/atomic"
)

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

// openArrival is one pre-drawn block entry: the arrival's instant, user
// attribution, and lookup split (its per-owner cold counts live in the
// block's flat cold buffer alongside).
type openArrival struct {
	t     float64
	user  uint64
	visit int
	hot   int
	warm  int
}

// openPredrawBlock is the number of arrivals in one pre-draw block.
var openPredrawBlock = 256

// predrawChunk is the number of entries one claim on a block draws.
const predrawChunk = 16

// predrawBlock is one block of pre-drawn arrivals. Entry i is arrival
// number base+i. Entries from live on lie at or past the horizon: the
// loop never reaches them, so they are never drawn.
type predrawBlock struct {
	ring []openArrival
	cold []int // per-owner cold counts, Nodes per entry
	base int
	live int

	next atomic.Int32   // the next chunk to claim
	wg   sync.WaitGroup // one Done per helper handed the block
}

// startHelpers starts the run's parts−1 pre-draw helpers; at parts < 2
// it starts none and the loop draws every block itself.
func (r *openRun) startHelpers(parts int) {
	r.parts = parts
	if parts < 2 {
		return
	}
	if cap(r.jobs) < parts-1 {
		r.jobs = make(chan *predrawBlock, parts-1)
	}
	r.helpers.Add(parts - 1)
	for range parts - 1 {
		go r.predrawHelper()
	}
}

// stopHelpers hands every helper the nil stop job and waits until all
// have exited. A helper still drawing a block finishes it first, so no
// helper writes into the run after it is released. The channel is
// empty afterwards and recycles with the run.
func (r *openRun) stopHelpers() {
	for range r.parts - 1 {
		r.jobs <- nil
	}
	r.helpers.Wait()
}

// predrawHelper draws chunks of each block it is handed until it
// receives nil.
func (r *openRun) predrawHelper() {
	for b := <-r.jobs; b != nil; b = <-r.jobs {
		r.drawChunks(b)
		b.wg.Done()
	}
	r.helpers.Done()
}

// ringNext makes the next block the front once the loop has drained the
// current one (or at the start of the run): the back block when one is
// in flight, else a block pulled here. The loop draws the front's
// unclaimed chunks and waits for the helpers' share. Then, under
// Parallel, the block after it goes to the helpers unless the front
// already reaches the horizon.
func (r *openRun) ringNext() {
	if r.backPending {
		r.front, r.backPending = 1-r.front, false
	} else {
		r.ringPull(&r.blocks[r.front], r.q)
	}
	f := &r.blocks[r.front]
	r.drawChunks(f)
	f.wg.Wait()
	r.ringHead, r.nextArr = 0, f.ring[0].t
	if r.parts > 1 && f.live == len(f.ring) {
		r.ringPull(&r.blocks[1-r.front], r.q+len(f.ring))
		r.backPending = true
	}
}

// ringPull fills b with the next openPredrawBlock arrival times and
// user attributions from the shared streams, base being the arrival
// number of its first entry, and hands it to the helpers. It runs on the
// loop goroutine while no block is being drawn.
func (r *openRun) ringPull(b *predrawBlock, base int) {
	n := openPredrawBlock
	arenaSlice(&b.ring, n)
	arenaSlice(&b.cold, n*r.plan.Nodes) // sized apart: a recycled block may come from a smaller fleet
	b.base, b.live = base, n
	for i := range b.ring {
		a := &b.ring[i]
		a.t = r.arrivals.Next()
		a.user, a.visit = uint64(base+i), 1
		if r.visitors != nil {
			a.user, a.visit = r.visitors.Next()
		}
		if a.t >= r.o.DurationMs && b.live == n {
			b.live = i
		}
	}
	b.next.Store(0)
	// No more helpers than chunks.
	k := min(r.parts-1, (b.live+predrawChunk-1)/predrawChunk)
	b.wg.Add(k)
	for range k {
		r.jobs <- b
	}
}

// drawChunks claims b's chunks one at a time and draws their entries'
// lookups until none is left.
func (r *openRun) drawChunks(b *predrawBlock) {
	nodes := r.plan.Nodes
	for {
		lo := int(b.next.Add(1)-1) * predrawChunk
		if lo >= b.live {
			return
		}
		for i := lo; i < min(lo+predrawChunk, b.live); i++ {
			a := &b.ring[i]
			a.hot, a.warm = r.drawArrival(b.base+i, a.user, a.visit, b.cold[i*nodes:(i+1)*nodes])
		}
	}
}
