package stats

import "math"

// Head-table geometry. headRanks bounds the ranks the table covers (the
// bench's HighHot tables draw 93.6% of their ranks from the first 1024),
// fastBits is how many top bits of a draw's 53-bit mantissa index the
// verdict table (2^14 int16 entries, 32 KB per sampler), and headGuard
// is the relative no-decision band around every boundary.
const (
	headRanks = 1024
	fastBits  = 14
	headGuard = 1e-9
)

// Verdicts other than an accepted rank (>= 0). A verdict-table entry
// below headReject is unsettled: headFallback-entry is the rank its
// scan starts from.
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
// exactly when u >= h(k-sCut). The rows store, per rank, those
// thresholds and the acceptance value accept(k), so an iteration whose
// u lies clearly inside one rank's interval is settled by a few
// comparisons, with no exp or log.
//
// Exactness of the rows. decide returns a verdict only when u is at
// least headGuard·|b| away from every rank and shortcut boundary b it
// relies on; otherwise it falls back to iterate itself. The computed
// hInv(u) = exp(log((1-s)u)/(1-s)) has relative error below about
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
// The verdict table. A draw's variate is u(m) = variate(m) for the
// 53-bit mantissa m the generator yields, and verdict is indexed by the
// top fastBits bits of m. u(m) is monotone (non-increasing) in m,
// because float64(m)/2^53 is exact and IEEE rounding of the multiply
// and the add is monotone, so a bucket's variates lie exactly in
// [u(last m), u(first m)], both computed by the same variate the draw
// calls. A bucket holds decide's verdict when that whole closed range
// gets one verdict from decide: it lies strictly inside one row's
// (lo, hi), and either at or above cutHi (accept), or at or below cutLo
// and wholly on one side of acc (accept or reject).
// Every other bucket is unsettled and stores the first row whose hi
// exceeds u(last m), which is where decide's forward scan starts for
// every variate in the bucket; a sentinel row past the last rank stops
// the scan for u beyond the table.
type zipfHead struct {
	rows    []headRow // one per covered rank, then the sentinel
	verdict [1 << fastBits]int16
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
	// Walk the buckets in rising u, so the scan's start only moves forward.
	const shift = 53 - fastBits
	r := 0
	for b := len(h.verdict) - 1; b >= 0; b-- {
		uLo, uHi := z.variate(uint64(b+1)<<shift-1), z.variate(uint64(b)<<shift)
		for h.rows[r].hi <= uLo {
			r++
		}
		h.verdict[b] = h.settle(r, uLo, uHi)
	}
	return h
}

// settle returns the verdict decide reaches for every u in [uLo, uHi],
// given r, the first row whose hi exceeds uLo; where decide does not
// reach one rank or headReject for the whole range, it returns the
// unsettled entry naming r.
func (h *zipfHead) settle(r int, uLo, uHi float64) int16 {
	row := &h.rows[r]
	if uLo > row.lo && uHi < row.hi {
		switch {
		case uLo >= row.cutHi, uHi <= row.cutLo && uLo >= row.acc:
			return int16(r)
		case uHi <= row.cutLo && uHi < row.acc:
			return headReject
		}
	}
	return int16(headFallback - r)
}

// decide settles the iteration for variate u from the rows alone,
// scanning forward from rank r, which must not lie past u's row: it
// returns the rank iterate would accept, headReject, or headFallback
// when iterate must run.
func (h *zipfHead) decide(u float64, r int) int {
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
