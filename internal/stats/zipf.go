package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Zipf samples ranks in [0, N) with probability proportional to
// 1/(rank+1)^s. It uses the rejection-inversion method of Hörmann and
// Derflinger, which needs O(1) time per sample and no O(N) setup, so it
// works for table sizes in the millions. A shared sampler (NewSharedZipf)
// also carries a decision table for the head ranks that settles most
// iterations without exp or log, returning the same rank from the same
// draws as the plain method (zipfHead).
type Zipf struct {
	rng *RNG
	n   float64
	s   float64
	// precomputed constants for rejection-inversion
	oneMinusS    float64
	invOneMinusS float64
	hx0          float64
	hImaxPlus1   float64
	sCut         float64
	// head is the shared sampler's head-rank decision table; nil for
	// NewZipf samplers and where the table is disabled.
	head *zipfHead
}

// NewZipf returns a Zipf sampler over ranks [0, n) with exponent s > 0,
// s != 1 handled exactly and s == 1 via a tiny offset. It panics if n < 1
// or s is not positive (NaN included), which indicate a programming error
// in the caller.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n < 1 {
		panic(fmt.Sprintf("stats: NewZipf with n=%d", n))
	}
	if !(s > 0) {
		panic(fmt.Sprintf("stats: NewZipf with s=%g", s))
	}
	if s == 1 {
		s = 1 + 1e-9
	}
	z := &Zipf{rng: rng, n: float64(n), s: s}
	z.oneMinusS = 1 - s
	z.invOneMinusS = 1 / z.oneMinusS
	z.hx0 = z.h(0.5) - 1
	z.hImaxPlus1 = z.h(z.n + 0.5)
	z.sCut = 1 - z.hInv(z.h(1.5)-math.Pow(1, -s))
	return z
}

// NewSharedZipf returns a sampler with no generator of its own, for use
// with SampleWith only. Construction never draws from the generator, so a
// shared sampler plus per-stream generators yields exactly the streams
// that per-stream samplers would. The sampler carries the head-rank
// decision table (zipfHead) and is memoized per (n, s): it is immutable,
// so every caller, on any goroutine, gets the same one, and a sweep of
// short runs builds each table once.
func NewSharedZipf(n int, s float64) *Zipf {
	key := zipfKey{n, s}
	if z, ok := sharedZipfs.Load(key); ok {
		return z.(*Zipf)
	}
	z := NewZipf(nil, n, s)
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

// Sample returns a rank in [0, n). Rank 0 is the hottest.
func (z *Zipf) Sample() int { return z.SampleWith(z.rng) }

// SampleWith draws a rank using r instead of the sampler's own stream.
// The sampler's constants depend only on (n, s), so one Zipf can serve
// many independent streams — construction is the expensive part.
func (z *Zipf) SampleWith(r *RNG) int {
	for {
		u := z.hImaxPlus1 + r.Float64()*(z.hx0-z.hImaxPlus1)
		if z.head != nil {
			if rank := z.head.decide(u); rank >= 0 {
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

// UniqueFraction estimates, by simulation, the fraction of distinct ranks
// drawn in a stream of length draws from a Zipf(n, s) distribution. It is
// used to calibrate the exponent against the paper's reported unique-access
// percentages (High=3%, Medium=24%, Low=60%).
func UniqueFraction(seed uint64, n, draws int, s float64) float64 {
	rng := NewRNG(seed)
	z := NewZipf(rng, n, s)
	seen := make(map[int]struct{}, draws)
	for i := 0; i < draws; i++ {
		seen[z.Sample()] = struct{}{}
	}
	return float64(len(seen)) / float64(draws)
}

// CalibrateZipfExponent finds, by bisection, the exponent s for which a
// Zipf(n, s) stream of the given length has approximately the target
// unique-access fraction. Larger s means hotter (fewer unique accesses).
func CalibrateZipfExponent(seed uint64, n, draws int, targetUnique float64) float64 {
	lo, hi := 0.01, 3.0
	for i := 0; i < 24; i++ {
		mid := (lo + hi) / 2
		u := UniqueFraction(seed, n, draws, mid)
		if u > targetUnique {
			lo = mid // too uniform; need hotter
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// AccessCounts draws `draws` samples from sampler and returns the per-rank
// access counts sorted descending — the data behind the paper's Fig. 5
// hot-embedding histograms.
func AccessCounts(sample func() int, draws int) []int {
	counts := map[int]int{}
	for i := 0; i < draws; i++ {
		counts[sample()]++
	}
	out := make([]int, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
