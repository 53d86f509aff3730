package stats

import (
	"fmt"
	"math"
	"sync"
)

// Zipf samples ranks in [0, N) with probability proportional to
// 1/(rank+1)^s. It uses the rejection-inversion method of Hörmann and
// Derflinger, which needs O(1) time per sample and no O(N) setup, so it
// works for table sizes in the millions. A shared sampler (NewSharedZipf)
// also carries a head table: a verdict for each bucket of the
// generator's top mantissa bits, which settles most iterations with one
// lookup, and per-rank thresholds that settle most of the rest. Neither
// needs exp or log, and the sampler returns the same rank from the same
// draws as the plain method (zipfHead).
type Zipf struct {
	n float64
	s float64
	// precomputed constants for rejection-inversion
	oneMinusS    float64
	invOneMinusS float64
	hx0          float64
	hImaxPlus1   float64
	sCut         float64
	// head is the shared sampler's head table (verdicts and rank rows);
	// nil for newZipf samplers and where the table is disabled.
	head *zipfHead
}

// newZipf returns a head-less Zipf sampler over ranks [0, n) with
// exponent s > 0, s != 1 handled exactly and s == 1 via a tiny offset:
// the plain rejection-inversion method the head table must agree with.
// It panics if n < 1 or s is not positive (NaN included), which indicate
// a programming error in the caller.
func newZipf(n int, s float64) *Zipf {
	if n < 1 {
		panic(fmt.Sprintf("stats: Zipf with n=%d", n))
	}
	if !(s > 0) {
		panic(fmt.Sprintf("stats: Zipf with s=%g", s))
	}
	if s == 1 {
		s = 1 + 1e-9
	}
	z := &Zipf{n: float64(n), s: s}
	z.oneMinusS = 1 - s
	z.invOneMinusS = 1 / z.oneMinusS
	z.hx0 = z.h(0.5) - 1
	z.hImaxPlus1 = z.h(z.n + 0.5)
	z.sCut = 1 - z.hInv(z.h(1.5)-math.Pow(1, -s))
	return z
}

// NewSharedZipf returns the sampler over ranks [0, n) with exponent s.
// Construction never draws from a generator, so one shared sampler plus
// per-stream generators yields exactly the streams that per-stream
// samplers would. The sampler carries the head table (zipfHead: a 32 KB
// verdict table over the draw's top mantissa bits and rows for the first
// 1024 ranks) and is memoized per (n, s): it is built before it is
// published and never written after, so every caller, on any goroutine,
// gets the same one, and a sweep of short runs builds each table once.
func NewSharedZipf(n int, s float64) *Zipf {
	key := zipfKey{n, s}
	if z, ok := sharedZipfs.Load(key); ok {
		return z.(*Zipf)
	}
	z := newZipf(n, s)
	z.head = newZipfHead(z)
	shared, _ := sharedZipfs.LoadOrStore(key, z)
	return shared.(*Zipf)
}

// sharedZipfs memoizes NewSharedZipf. Callers use a handful of (table
// height, exponent) pairs — the hotness classes' reference exponents at
// the configured table sizes — so the memo stays small.
var sharedZipfs sync.Map // zipfKey -> *Zipf

type zipfKey struct {
	n int
	s float64
}

// h is the antiderivative of x^-s used by rejection-inversion.
func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneMinusS*math.Log(x)) * z.invOneMinusS
}

func (z *Zipf) hInv(x float64) float64 {
	return math.Exp(z.invOneMinusS * math.Log(z.oneMinusS*x))
}

// SampleWith draws a rank in [0, n) from r; rank 0 is the hottest. The
// sampler holds no generator: its constants depend only on (n, s), so
// one Zipf serves many independent streams. Each iteration takes one
// 53-bit mantissa m from r, the value r.Float64() would scale, so the
// generator is consumed exactly as by Float64; a shared sampler first
// looks up m's verdict in its head table.
func (z *Zipf) SampleWith(r *RNG) int {
	h := z.head
	for {
		m := r.Uint64() >> 11
		start := 0
		if h != nil {
			v := int(h.verdict[m>>(53-fastBits)])
			if v >= 0 {
				return v
			} else if v == headReject {
				continue
			}
			start = headFallback - v
		}
		u := z.variate(m)
		if h != nil {
			if rank := h.decide(u, start); rank >= 0 {
				return rank
			} else if rank == headReject {
				continue
			}
		}
		if rank, ok := z.iterate(u); ok {
			return rank
		}
	}
}

// variate maps a draw's 53-bit mantissa m to the iteration's variate:
// u = hImaxPlus1 + F*(hx0-hImaxPlus1) with F = m/2^53, the uniform
// r.Float64() returns for m.
func (z *Zipf) variate(m uint64) float64 {
	return z.hImaxPlus1 + float64(m)/(1<<53)*(z.hx0-z.hImaxPlus1)
}

// iterate is one rejection-inversion iteration for the variate u: it
// reports the rank and true if u is accepted, false if the sampler must
// draw again.
func (z *Zipf) iterate(u float64) (int, bool) {
	x := z.hInv(u)
	k := math.Floor(x + 0.5)
	if k < 1 {
		k = 1
	} else if k > z.n {
		k = z.n
	}
	if k-x <= z.sCut || u >= z.accept(k) {
		return int(k) - 1, true
	}
	return 0, false
}

// accept is the slow acceptance threshold for candidate rank k (1-based):
// iterate accepts k when u >= accept(k). The head table stores this very
// value, so its thresholds are bit-identical to the ones iterate computes.
func (z *Zipf) accept(k float64) float64 {
	return z.h(k+0.5) - math.Exp(-z.s*math.Log(k))
}
