package cluster

// The windowed driver of the parallel execution backend (DESIGN.md §14),
// for open and closed runs alike. The event loop cannot pre-sort its
// copies — arrivals keep scheduling new ones, and admission control must
// observe queue state at each arrival instant — so the conservative
// discipline runs window by window:
//
//   - A window starts at the earliest pending event W and ends at
//     Wend = min(W + Lat, next autoscaler tick), Lat = Net.LatencyMs.
//     Ticks mutate the active set and queue availability, so they only
//     run at barriers; truncating the window at the tick preserves the
//     tick-precedes-everything tie rule exactly.
//   - Every copy arriving in [W, Wend) was scheduled by an arrival
//     before W: an arrival at t schedules copies no earlier than
//     t + Lat >= W + Lat >= Wend. Each such copy is either on the heap
//     when the window opens or waits in its sub's chain behind a copy
//     that is: collecting a copy queues the successor that arrives
//     before Wend, and the barrier queues the later ones against the
//     merged best responses. Phase A serves the collected copies with
//     the partitioned deferred-merge machinery of exec.go, partition
//     ownership following the routed node — the active set cannot
//     change mid-window, so routing is frozen.
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
// then fills every entry's lookup split concurrently (independent RNG
// lanes via stats.SplitSeed, so any partitioning yields identical draws).

import "math"

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
// splits computed concurrently for the entries before the horizon (the
// rest are never processed). Ring entry i is arrival number r.q+i —
// the ring only refills when fully drained, so the base index is the
// live counter.
func (r *openRun) ringFill(parts int) {
	nodes := r.plan.Nodes
	n := openPredrawBlock
	arenaSlice(&r.ring, n)
	arenaSlice(&r.ringCold, n*nodes) // sized apart: a recycled ring may come from a smaller fleet
	qb := r.q
	live := n
	for i := range r.ring {
		a := &r.ring[i]
		a.t = r.arrivals.Next()
		a.user, a.visit = uint64(qb+i), 1
		if r.visitors != nil {
			a.user, a.visit = r.visitors.Next()
		}
		if a.t >= r.o.DurationMs && live == n {
			live = i
		}
	}
	chunk := (live + parts - 1) / parts
	runParts(parts, func(p int) {
		lo := p * chunk
		hi := min(lo+chunk, live)
		for i := lo; i < hi; i++ {
			a := &r.ring[i]
			a.hot, a.warm = r.drawArrival(qb+i, a.user, a.visit, r.ringCold[i*nodes:(i+1)*nodes])
		}
	})
	r.ringHead = 0
	r.nextArr = r.ring[0].t
}

// loopParallel is the windowed parallel driver. All copies wait in the
// run's one copy heap; serving ownership follows the routed node inside
// serveWindow.
func (r *openRun) loopParallel(parts int) {
	o := r.o
	st := r.st
	a := r.arena
	lat := st.cfg.Net.LatencyMs
	nodes := r.plan.Nodes
	h := a.copyQueue()
	st.copies = h
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

	win, waiting := a.win[:0], a.waiting[:0]
	defer func() { a.win, a.waiting = win, waiting }()
	r.ringFill(parts)
	for {
		// Window start: the earliest pending event. Ticks win ties and
		// run at the barrier; the window never spans one.
		w := math.Inf(1)
		if r.nextArr < o.DurationMs {
			w = r.nextArr
		}
		if h.Len() > 0 && h.Min().arrive < w {
			w = h.Min().arrive
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
			// Settle every boundary at or before the window start, then
			// truncate the window at the next one: no window spans an
			// epoch boundary, so settle() sees exactly the pre-boundary
			// copies — the same pending set the sequential driver folds.
			ad.advanceTo(w)
			if ad.boundary < wend {
				wend = ad.boundary
			}
		}

		// Collect the window's copies — complete by the conservative
		// argument above — in the heap's canonical pop order. A popped
		// copy's successor that arrives inside the window is queued now,
		// checked against the best responses of the previous barrier —
		// exactly what its suppression check reads in phase A; any later
		// successor waits for this window's merge.
		win, waiting = win[:0], waiting[:0]
		for h.Len() > 0 && h.Min().arrive < wend {
			c := h.Pop()
			win = append(win, c)
			if st.queueNext(c.sub, wend) {
				waiting = append(waiting, c.sub)
			}
		}

		// Phase A: partitioned copy service with deferred router-state
		// merges, recording earliest-free histories for admission.
		if shed {
			for n := 0; n < nodes; n++ {
				efStart[n] = st.queues[n].EarliestFree()
				efHist[n] = efHist[n][:0]
			}
		}
		st.serveWindow(win, parts, scratch, r.route, efHist)
		for _, sub := range waiting {
			st.queueNext(sub, math.Inf(1))
		}

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
					r.sj.copyDone(st, &r.tally, c.sub, r.route(c.node)%parts)
				}
			}
		}
	}
}
