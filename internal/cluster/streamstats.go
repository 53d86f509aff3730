package cluster

// Stream-stats mode for the open-loop tier (-stream-stats in
// cmd/dlrmcluster): instead of retaining one latency sample and one sub
// record per admitted query — O(queries) memory that makes a
// day-in-the-life run at production QPS (billions of events)
// impossible — the join happens INCREMENTALLY. Every sub-request counts
// its outstanding copies, processed or dropped unqueued once beaten
// (sim.go's queueNext); when the last copy is processed the sub folds
// its resolution into its query's join record and returns its slot to a
// freelist, and when a query's last sub folds, the query finalizes:
// its latency goes into a fixed-memory stats.QuantileSketch and its
// record is recycled too. Live state is bounded by the in-flight
// high-water mark, not the run length.
//
// Accuracy contract: both summary modes fold every query through the
// one joinTally (openloop.go) — the same openJoinRec.addSub per sub and
// joinTally.finish per query — so every counter metric (goodput, shed
// rate, violation minutes, fanout, retries, availability, completeness,
// recovery) is EXACT; the stream join merely folds each query at its
// last copy instead of in the summary. P50/P95/P99 carry the sketch's
// bounded relative error (~0.8%, stats.QuantileSketch), and Mean can
// differ only by float summation order. The default mode keeps the
// exact batch join, so golden files are untouched.
//
// Event order under recycling: the copy comparator keys ties on the
// sub's monotone creation seq (sim.go), which the freelist does not
// reuse, so admission, queueing, and service times are bit-for-bit
// identical to the batch-join run — only the summary differs.

import "dlrmsim/internal/stats"

// streamJoin owns the incremental join's storage: recycled records, the
// latency sketch, and the live-record high-water marks.
type streamJoin struct {
	sketch    stats.QuantileSketch
	joins     []openJoinRec
	freeJoins []int

	maxLiveJoins, maxLiveSubs int
}

// open stores an admitted query's join record and returns its slot.
func (sj *streamJoin) open(rec openJoinRec) int {
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

// finalizeIfEmpty closes a join record that attached no subs (an
// admitted query whose every lookup short-circuited): it joins at its
// own arrival, exactly as the batch loop scores it.
func (sj *streamJoin) finalizeIfEmpty(t *joinTally, slot int) {
	if sj.joins[slot].subsLeft == 0 {
		sj.finalize(t, slot)
	}
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
func (sj *streamJoin) copyDone(st *simState, t *joinTally, subIdx int) {
	sub := &st.subs[subIdx]
	sub.copiesLeft--
	if sub.copiesLeft > 0 {
		return
	}
	if live := len(st.subs) - len(st.freeSubs); live > sj.maxLiveSubs {
		sj.maxLiveSubs = live
	}
	rec := &sj.joins[sub.join]
	rec.addSub(st, sub)
	st.freeSubs = append(st.freeSubs, subIdx)
	rec.subsLeft--
	if rec.subsLeft == 0 {
		sj.finalize(t, sub.join)
	}
}

// finalize folds one joined query into the tally and recycles the
// record, its scored latency into the sketch.
func (sj *streamJoin) finalize(t *joinTally, slot int) {
	if lat, scored := t.finish(&sj.joins[slot]); scored {
		sj.sketch.Add(lat)
	}
	sj.freeJoins = append(sj.freeJoins, slot)
}
