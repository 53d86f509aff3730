package cluster

// Closed-loop half of the parallel execution backend (DESIGN.md §14).
// Phase 1's lookup draws are pure functions of (Seed, query, table) —
// independent RNG lanes via stats.SplitSeed — so they pre-compute in
// parallel over the query range with no synchronization at all. Phase 2
// is the conservative-window discipline from exec.go over the sorted
// copy order: when the mitigation policy schedules no conditional
// copies the run is one infinite window; otherwise windows of width
// Net.LatencyMs walk the sorted slice with a barrier merge between
// windows.

import (
	"slices"

	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
)

// parallelizable reports whether this run can execute under the
// windowed parallel backend: conditional copies (hedges, timeout
// retries) need a positive network lookahead to defer their
// suppression state behind; with a free network there is no window to
// hide the merge in and the run stays sequential.
func (s *simState) parallelizable() bool {
	mit := &s.cfg.Mitigation
	if mit.HedgeDelayMs <= 0 && mit.TimeoutMs <= 0 {
		return true
	}
	return s.cfg.Net.LatencyMs > 0
}

// runParallel is run()'s parallel-backend variant: identical copy
// order, identical per-copy arithmetic, with partitions serving
// disjoint node sets inside each conservative window.
func (s *simState) runParallel(parts int, scratch []partScratch) {
	slices.SortFunc(s.copies, copyCmp)
	mit := &s.cfg.Mitigation
	if mit.HedgeDelayMs <= 0 && mit.TimeoutMs <= 0 {
		// No conditional copies: nothing ever reads the deferred router
		// state mid-run, so the whole schedule is one window.
		s.serveWindow(s.copies, parts, scratch, nil, nil)
		return
	}
	lookahead := s.cfg.Net.LatencyMs
	for i := 0; i < len(s.copies); {
		w := s.copies[i].arrive
		end := w + lookahead
		if ad := s.adapt; ad != nil {
			// Settle every epoch boundary at or before the window start,
			// then truncate the window at the next boundary: windows never
			// span a boundary, so settle() sees exactly the pre-boundary
			// copies — the same pending set the sequential driver folds.
			ad.advanceTo(w)
			if ad.boundary < end {
				end = ad.boundary
			}
		}
		j := i + 1
		for j < len(s.copies) && s.copies[j].arrive < end {
			j++
		}
		s.serveWindow(s.copies[i:j], parts, scratch, nil, nil)
		i = j
	}
}

// drawQuery draws query q's per-table lookups and splits them by the
// plan: cold (len Nodes, overwritten) receives per-owner cold-lookup
// counts and the return value is the replicated-hot count. Extracted
// from the closed-loop phase 1 so the parallel backend can pre-draw
// queries concurrently — every (q, table) stream is a stateless RNG
// lane, so any partitioning of the query range yields identical draws.
func (s *simState) drawQuery(zipf *stats.Zipf, draws, q int, cold []int) (hot int) {
	for n := range cold {
		cold[n] = 0
	}
	model := s.plan.Model
	for t := 0; t < model.Tables; t++ {
		rng := stats.SeededRNG(stats.SplitSeed(s.cfg.Seed^0x100C, uint64(q*model.Tables+t)))
		for l := 0; l < draws; l++ {
			var r int
			switch s.cfg.Hotness {
			case trace.OneItem:
				// rank 0, the single hot row
			case trace.RandomAccess:
				r = rng.Intn(model.RowsPerTable)
			default:
				r = zipf.SampleWith(&rng)
			}
			if s.plan.Replicated(r) {
				hot++
			} else {
				cold[s.plan.Owner(t, s.plan.rowOfRank(t, r))]++
			}
		}
	}
	return hot
}

// predrawQueries computes every query's lookup split concurrently:
// hot[q] and cold[q*Nodes:(q+1)*Nodes] hold what drawQuery would
// produce for q. The static range split is unobservable — each query's
// draws depend only on (Seed, q).
func (s *simState) predrawQueries(zipf *stats.Zipf, draws, queries, parts int, hot, cold []int) {
	nodes := s.plan.Nodes
	chunk := (queries + parts - 1) / parts
	runParts(parts, func(p int) {
		lo := p * chunk
		hi := lo + chunk
		if hi > queries {
			hi = queries
		}
		for q := lo; q < hi; q++ {
			hot[q] = s.drawQuery(zipf, draws, q, cold[q*nodes:(q+1)*nodes])
		}
	})
}
