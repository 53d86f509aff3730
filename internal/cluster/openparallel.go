package cluster

// Open-loop half of the parallel execution backend (DESIGN.md §14).
// The open event loop cannot pre-sort its copies — arrivals keep
// scheduling new ones, and admission control must observe queue state
// at each arrival instant — so the conservative discipline here runs
// window by window:
//
//   - A window starts at the earliest pending event W and ends at
//     Wend = min(W + Lat, next autoscaler tick), Lat = Net.LatencyMs.
//     Ticks mutate the active set and queue availability, so they only
//     run at barriers; truncating the window at the tick preserves the
//     tick-precedes-everything tie rule exactly.
//   - Every copy arriving in [W, Wend) was scheduled by an arrival
//     before W: an arrival at t schedules copies no earlier than
//     t + Lat >= W + Lat >= Wend. The window's copies are therefore all
//     queued when it opens, and phase A serves them with the same
//     partitioned deferred-merge machinery as the closed loop
//     (exec.go), partition ownership following the routed node — the
//     active set cannot change mid-window, so routing is frozen.
//   - Phase B replays the window's timeline on one goroutine in the
//     exact sequential order — arrivals interleaved with the served
//     copies, arrival-before-copy at equal instants — running the
//     admission/scheduling/stream-join logic the arrival and copy
//     events carry. Admission cannot read the live queues (phase A
//     already pushed them past this arrival's instant); it reads a
//     reconstructed as-of-now view instead: each partition records the
//     node's earliest-free instant after every served copy (efEntry),
//     and the backlog an arrival at t observes is the last record with
//     arrive < t — strict, because an arrival at t precedes a copy at
//     t — falling back to the window-start snapshot. That is exactly
//     the queue state the sequential loop reads.
//
// Sub-request copies (and, under stream-stats, join records and sub
// slots) are created, resolved, and recycled entirely inside phase B,
// in the sequential order — so slot assignment, the monotone seq tie
// key, and every float fold are bit-for-bit the sequential run's.
//
// The arrival draws — the dominant per-event cost — are pure functions
// of (Seed, q, user, visit): the driver pulls arrival times and user
// attributions sequentially into a pre-draw ring a block at a time,
// then fills every entry's lookup split concurrently (RNG lanes via
// stats.SplitSeed, as in the closed loop's predrawQueries).

import (
	"math"
	"slices"
)

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

// openPredrawBlock is the pre-draw ring's refill granularity. Draws
// past the horizon are wasted work at most once, at the end of the run.
var openPredrawBlock = 256

// ringFill refills the pre-draw ring: arrival times and user
// attributions pulled sequentially from the shared streams, lookup
// splits computed concurrently. Ring entry i is arrival number r.q+i —
// the ring only refills when fully drained, so the base index is the
// live counter.
func (r *openRun) ringFill(parts int) {
	nodes := r.plan.Nodes
	n := openPredrawBlock
	if cap(r.ring) < n {
		r.ring = make([]openArrival, n)
		r.ringCold = make([]int, n*nodes)
	}
	r.ring = r.ring[:n]
	qb := r.q
	for i := range r.ring {
		a := &r.ring[i]
		a.t = r.stream.Next()
		a.user, a.visit = uint64(qb+i), 1
		if r.visitors != nil {
			a.user, a.visit = r.visitors.Next()
		}
	}
	chunk := (n + parts - 1) / parts
	runParts(parts, func(p int) {
		lo := p * chunk
		hi := min(lo+chunk, n)
		for i := lo; i < hi; i++ {
			a := &r.ring[i]
			a.hot, a.warm = r.drawArrival(qb+i, a.user, a.visit, r.ringCold[i*nodes:(i+1)*nodes])
		}
	})
	r.ringHead = 0
	r.nextArr = r.ring[0].t
}

// loopParallel is the windowed parallel driver. Each partition owns its
// own copy wheel, keyed by the copy's planned node —
// storage partitioning only; serving ownership follows the routed node
// inside serveWindow.
func (r *openRun) loopParallel(parts int) {
	o := r.o
	st := r.st
	a := r.arena
	lat := st.cfg.Net.LatencyMs
	nodes := r.plan.Nodes
	qs := a.copyQueueSet(parts)
	r.push = func(c subCopy) { qs[c.node%parts].Push(c) }
	scratch := a.partScratchSet(parts)

	// Admission's as-of-now queue view: window-start snapshots plus the
	// per-copy earliest-free histories phase A records. Only built when
	// the shed policy actually reads backlogs.
	shed := o.Admission.Policy == ShedOverBudget
	var efStart []float64
	var efHist [][]efEntry
	backlogAt := r.backlog
	if shed {
		efStart = arenaSlice(&a.efStart, nodes)
		efHist = a.efHistSet(nodes)
		backlogAt = func(n int, now float64) float64 {
			ef := efStart[n]
			h := efHist[n]
			for i := len(h) - 1; i >= 0; i-- {
				if h[i].arrive < now {
					ef = h[i].ef
					break
				}
			}
			if b := ef - now; b > 0 {
				return b
			}
			return 0
		}
	}

	win := a.win[:0]
	defer func() { a.win = win }()
	r.ringFill(parts)
	for {
		// Window start: the earliest pending event. Ticks win ties and
		// run at the barrier; the window never spans one.
		w := math.Inf(1)
		if r.nextArr < o.DurationMs {
			w = r.nextArr
		}
		for p := range qs {
			if qs[p].Len() > 0 {
				if t := qs[p].Min().arrive; t < w {
					w = t
				}
			}
		}
		if r.nextTick <= o.DurationMs && r.nextTick <= w {
			r.tick(r.nextTick)
			continue
		}
		if math.IsInf(w, 1) {
			return
		}
		wend := w + lat
		if r.nextTick <= o.DurationMs && r.nextTick < wend {
			wend = r.nextTick
		}
		if ad := st.adapt; ad != nil {
			// Same discipline as the closed loop (parallel.go): settle
			// every boundary at or before the window start, truncate the
			// window at the next one — no window spans an epoch boundary.
			ad.advanceTo(w)
			if ad.boundary < wend {
				wend = ad.boundary
			}
		}

		// Collect the window's copies — complete by the conservative
		// argument above — and restore the canonical global order across
		// the per-partition queues (each yields a sorted run).
		win = win[:0]
		for p := range qs {
			for qs[p].Len() > 0 {
				if m := qs[p].Min(); m.arrive < wend {
					win = append(win, qs[p].Pop())
				} else {
					break
				}
			}
		}
		slices.SortFunc(win, copyCmp)

		// Phase A: partitioned copy service with deferred router-state
		// merges, recording earliest-free histories for admission.
		if shed {
			for n := 0; n < nodes; n++ {
				efStart[n] = st.queues[n].EarliestFree()
				efHist[n] = efHist[n][:0]
			}
		}
		st.serveWindow(win, parts, scratch, r.route, efHist)

		// Phase B: sequential canonical replay of the window's timeline.
		wi := 0
		for {
			tA, tC := math.Inf(1), math.Inf(1)
			if r.nextArr < o.DurationMs && r.nextArr < wend {
				tA = r.nextArr
			}
			if wi < len(win) {
				tC = win[wi].arrive
			}
			if math.IsInf(tA, 1) && math.IsInf(tC, 1) {
				break
			}
			if tA <= tC { // arrivals precede copies at equal instants
				a := &r.ring[r.ringHead]
				coldq := r.ringCold[r.ringHead*nodes : (r.ringHead+1)*nodes]
				r.processArrival(tA, a.user, a.visit, a.hot, a.warm, coldq, backlogAt)
				r.ringHead++
				if r.ringHead == len(r.ring) {
					r.ringFill(parts)
				} else {
					r.nextArr = r.ring[r.ringHead].t
				}
			} else {
				c := &win[wi]
				wi++
				if r.sj != nil {
					r.sj.copyDone(st, c.sub, r.route(c.node)%parts)
				}
			}
		}
	}
}
