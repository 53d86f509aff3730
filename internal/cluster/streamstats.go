package cluster

// The query join. Every admitted query opens a join record at admission
// and every sub-request counts its outstanding copies, processed or
// dropped unqueued once beaten (sim.go's queueNext); when the last copy
// is processed the sub folds its resolution into its query's record and
// returns its slot to a freelist, and when a query's last sub folds, the
// query finalizes through the joinTally (openloop.go) and its record is
// recycled too. Live join state is bounded by the in-flight high-water
// mark, not the run length, in both summary modes.
//
// The modes differ only in where a scored query's latency and
// completeness share go. The default (exact) mode keeps the pair in two
// slices indexed by scored-admission order — 16 bytes per scored query
// — and the summary sums them in that order and takes exact
// nearest-rank percentiles, the golden baseline. Stream-stats mode
// (-stream-stats in cmd/dlrmcluster) adds the latency to a fixed-memory
// stats.QuantileSketch and the pair to running sums, so a
// day-in-the-life run at production QPS (billions of events) keeps no
// per-query state at all.
//
// Accuracy contract: both modes fold every query through the same
// openJoinRec.addSub per sub and joinTally.finish per query, so every
// counter metric (goodput, shed rate, violation minutes, fanout,
// retries, availability, recovery) is identical. Stream-stats P50/P95/P99
// carry the sketch's bounded relative error (~0.8%,
// stats.QuantileSketch), and its Mean and Completeness can differ only
// by float summation order (completion instead of admission order).

import "dlrmsim/internal/stats"

// streamJoin owns the join's storage: recycled records, where scored
// queries go, and the live-record high-water marks.
type streamJoin struct {
	joins     []openJoinRec
	freeJoins []int

	// stream selects the sink: under StreamStats, sketch receives the
	// scored latencies (it is allocated at a run's first use and
	// recycled after); otherwise lats and shares hold the exact mode's
	// scored (latency, completeness share) pairs by scored-admission
	// order.
	stream       bool
	sketch       *stats.QuantileSketch
	lats, shares []float64

	maxLiveJoins, maxLiveSubs int
}

// open stores an admitted query's join record and returns its slot; in
// exact mode a scored query also reserves its sample slot.
func (sj *streamJoin) open(rec openJoinRec) int {
	if rec.post && !sj.stream {
		rec.sample = len(sj.lats)
		sj.lats = append(sj.lats, 0)
		sj.shares = append(sj.shares, 0)
	}
	var slot int
	if n := len(sj.freeJoins); n > 0 {
		slot = sj.freeJoins[n-1]
		sj.freeJoins = sj.freeJoins[:n-1]
		sj.joins[slot] = rec
	} else {
		slot = len(sj.joins)
		sj.joins = append(sj.joins, rec)
	}
	if live := len(sj.joins) - len(sj.freeJoins); live > sj.maxLiveJoins {
		sj.maxLiveJoins = live
	}
	return slot
}

// copyDone is called after every processed copy, in canonical copy
// order. When it was the sub's last outstanding copy, the sub folds
// into its join record and its slot is recycled; when that was the
// query's last sub, the query finalizes. The loop advances a sub's
// chain before calling copyDone for the copy that preceded it, so the
// drops have been counted and the last decrement is always a processed
// copy — for the query's final sub, its flagged last copy, which is
// never dropped: queries finalize in the order the full schedule would
// pop them.
func (r *openRun) copyDone(subIdx int) {
	sub := &r.subs[subIdx]
	sub.copiesLeft--
	if sub.copiesLeft > 0 {
		return
	}
	sj := &r.sj
	if live := len(r.subs) - len(r.freeSubs); live > sj.maxLiveSubs {
		sj.maxLiveSubs = live
	}
	rec := &sj.joins[sub.join]
	rec.addSub(r, sub)
	r.freeSubs = append(r.freeSubs, subIdx)
	rec.subsLeft--
	if rec.subsLeft == 0 {
		sj.finalize(&r.tally, sub.join)
	}
}

// finalize folds one joined query into the tally, sends a scored
// query's latency and completeness share to the mode's sink, and
// recycles the record.
func (sj *streamJoin) finalize(t *joinTally, slot int) {
	rec := &sj.joins[slot]
	if lat, share, scored := t.finish(rec); scored {
		if sj.stream {
			sj.sketch.Add(lat)
			t.latSum += lat
			t.completenessSum += share
		} else {
			sj.lats[rec.sample], sj.shares[rec.sample] = lat, share
		}
	}
	sj.freeJoins = append(sj.freeJoins, slot)
}
