package stats

import "math"

// Head-table geometry. headRanks bounds the ranks the table covers (the
// bench's HighHot tables draw 93.6% of their ranks from the first 1024),
// headBuckets sizes the guide over u, and headGuard is the relative
// no-decision band around every boundary.
const (
	headRanks   = 1024
	headBuckets = 4096
	headGuard   = 1e-9
)

// Verdicts of zipfHead.decide other than an accepted rank (>= 0).
const (
	headReject   = -1 // iterate would reject u: draw again
	headFallback = -2 // too close to a boundary, or past the table: run iterate
)

// zipfHead is an exact decision table for the head ranks of a shared
// sampler. A rejection-inversion iteration maps its variate u to
// x = hInv(u), takes the candidate k = floor(x+0.5), and accepts k if
// k-x <= sCut or u >= accept(k). Since h is increasing, every step is a
// threshold on u: k = j exactly when h(j-0.5) < u < h(j+0.5) (k clamps
// to 1 below h(1.5) and to n above h(n-0.5)), and the shortcut holds
// exactly when u >= h(k-sCut). The table stores, per rank,
// those thresholds and the acceptance value accept(k), so an iteration
// whose u lies clearly inside one rank's interval is settled by a few
// comparisons, with no exp or log.
//
// Exactness. decide returns a verdict only when u is at least
// headGuard·|b| away from every rank and shortcut boundary b it relies
// on; otherwise it falls back to iterate itself. The computed hInv(u) =
// exp(log((1-s)u)/(1-s)) has relative error below about
// (1/|1-s| + ln x + 4)·2^-52 ≈ 1e-13 over the covered ranks, and the
// stored boundaries h(j±0.5), h(k-sCut) are within a few ulps of exact.
// A relative gap of 1e-9 in u is a relative gap of at least
// 1e-9/|1-s| in x, more than 1000 times those errors, so iterate's
// computed k and shortcut test agree with the table's wherever the
// table decides. The acceptance test needs no guard: acc holds the
// very float64 that iterate compares u against. The table is built
// only for |1-s| >= 1e-3 (which excludes s = 1, sampled as 1+1e-9) so
// that the 1/|1-s| error term stays bounded, and only for n >= 2.
//
// Finding the rank: a uniform guide over the covered u range names, per
// bucket, the first rank whose interval reaches the bucket's start; a
// short forward scan over the rows finishes the search, and a sentinel
// row past the last rank stops it for u beyond the table. The guide only
// picks where the scan starts — decide re-checks that u lies inside the
// found rank's safe interval, so a rounding slip at a bucket edge costs
// a fallback, never a wrong rank.
type zipfHead struct {
	rows  []headRow // one per covered rank, then the sentinel
	guide [headBuckets + 1]uint16
	base  float64 // lower end of the guide's u range
	scale float64 // guide buckets per unit of u
}

// headRow is the decision data for 0-based rank r (candidate k = r+1).
type headRow struct {
	lo, hi       float64 // u in (lo, hi) is certainly rank r
	cutLo, cutHi float64 // u >= cutHi takes the shortcut; u <= cutLo does not
	acc          float64 // accept(k): iterate accepts k when u >= acc
}

// newZipfHead builds z's head table, or returns nil where the table is
// disabled (see zipfHead).
func newZipfHead(z *Zipf) *zipfHead {
	if z.n < 2 || math.Abs(z.oneMinusS) < 1e-3 {
		return nil
	}
	guarded := func(b, dir float64) float64 { return b + dir*headGuard*math.Abs(b) }
	ranks := int(math.Min(z.n, headRanks))
	h := &zipfHead{rows: make([]headRow, ranks+1)}
	lo := math.Inf(-1)
	for r := range ranks {
		k := float64(r + 1)
		cut := z.h(k - z.sCut)
		row := headRow{lo: lo, cutLo: guarded(cut, -1), cutHi: guarded(cut, 1), acc: z.accept(k)}
		b := z.h(k + 0.5)
		row.hi = guarded(b, -1)
		if r == int(z.n)-1 {
			// iterate clamps k to n, so the last rank has no upper boundary.
			row.hi = math.Inf(1)
		}
		lo = guarded(b, 1)
		h.rows[r] = row
	}
	inf := math.Inf(1)
	h.rows[ranks] = headRow{lo: inf, hi: inf}
	// u ranges over [hImaxPlus1 + (hx0-hImaxPlus1), hImaxPlus1], whose
	// computed lower end may sit an ulp below hx0.
	h.base = math.Min(z.hx0, z.hImaxPlus1+(z.hx0-z.hImaxPlus1))
	end := math.Min(h.rows[ranks-1].hi, z.hImaxPlus1)
	width := (end - h.base) / headBuckets
	h.scale = 1 / width
	r := 0
	for i := range h.guide {
		// Start each bucket's scan a hair below its edge, so the guide
		// errs towards lower ranks, which the forward scan corrects.
		start := h.base + (float64(i)-1e-3)*width
		for r < ranks-1 && h.rows[r].hi <= start {
			r++
		}
		h.guide[i] = uint16(r)
	}
	return h
}

// decide settles the iteration for variate u from the table alone: it
// returns the rank iterate would accept, headReject, or headFallback when
// iterate must run.
func (h *zipfHead) decide(u float64) int {
	i := int((u - h.base) * h.scale)
	if uint(i) > headBuckets {
		return headFallback
	}
	r := int(h.guide[i])
	for u >= h.rows[r].hi {
		r++
	}
	row := &h.rows[r]
	if u <= row.lo || u > row.cutLo && u < row.cutHi {
		return headFallback
	}
	// Past the guard band, u > cutLo means u >= cutHi: the shortcut.
	if u > row.cutLo || u >= row.acc {
		return r
	}
	return headReject
}
