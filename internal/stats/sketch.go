package stats

import (
	"math"
)

// QuantileSketch is a fixed-memory streaming quantile estimator for
// non-negative samples (latencies in ms). It buckets values on a
// base-2 logarithmic grid with linear sub-buckets per octave — the
// HDR-histogram layout — so Add is O(1) with no floating-point log, the
// memory footprint is a compile-time constant regardless of how many
// samples are observed, and every quantile is error-bounded: the
// returned value differs from the exact nearest-rank sample by at most
// half a bucket, a relative error of 1/(2·sketchSubBuckets) ≈ 0.8%.
//
// The open-loop cluster simulator's -stream-stats mode feeds every
// post-warmup latency through one of these instead of retaining the
// per-query sample slice, which is what keeps a day-in-the-life run at
// production QPS (billions of events) in flat memory. The default
// (exact nearest-rank over retained samples) is unchanged; the sketch
// is the opt-in trade of ≤0.8% value error for O(1)-sample memory.
//
// The zero value is ready to use.
type QuantileSketch struct {
	// counts is indexed by (octave, sub-bucket). Octave o covers values
	// in [2^(o+sketchMinExp-1), 2^(o+sketchMinExp)), split into
	// sketchSubBuckets equal linear steps.
	counts [sketchOctaves * sketchSubBuckets]uint64
	// zero counts exact zeros (a zero-latency sample has no octave).
	zero uint64
	// low/high count samples clamped below/above the representable
	// range; their contribution to quantiles is min/max respectively.
	low, high uint64

	count    uint64
	sum      float64
	min, max float64
}

const (
	// sketchSubBuckets is the linear resolution within one octave;
	// 64 bounds the relative half-bucket error at 1/128 ≈ 0.8%.
	sketchSubBuckets = 64
	// sketchMinExp/sketchOctaves pin the representable range to
	// [2^-21, 2^42) ≈ [0.5 ns, 4.4e12 ms] when samples are in ms —
	// far wider than any simulated latency; outliers clamp to min/max.
	sketchMinExp  = -21
	sketchOctaves = 64
)

// sketchIndex maps a positive finite v to its bucket, or a negative
// sentinel: -1 below range, -2 above.
func sketchIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	o := exp - sketchMinExp - 1
	if o < 0 {
		return -1
	}
	if o >= sketchOctaves {
		return -2
	}
	sub := int((frac - 0.5) * (2 * sketchSubBuckets))
	if sub >= sketchSubBuckets { // frac == nextafter(1, 0) rounding guard
		sub = sketchSubBuckets - 1
	}
	return o*sketchSubBuckets + sub
}

// sketchValue returns the representative (midpoint) value of bucket i.
func sketchValue(i int) float64 {
	o := i / sketchSubBuckets
	sub := i % sketchSubBuckets
	lo := math.Ldexp(0.5+float64(sub)/(2*sketchSubBuckets), o+sketchMinExp+1)
	width := math.Ldexp(1/float64(2*sketchSubBuckets), o+sketchMinExp+1)
	return lo + width/2
}

// Add records one sample. Negative and non-finite samples are treated
// as range clamps (counted, reflected in min/max) rather than dropped,
// so Count always equals the number of Add calls.
func (s *QuantileSketch) Add(v float64) {
	if s.count == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.count++
	s.sum += v
	switch {
	case v == 0 || v < 0 || math.IsNaN(v):
		s.zero++
	case math.IsInf(v, 1):
		s.high++
	default:
		switch i := sketchIndex(v); i {
		case -1:
			s.low++
		case -2:
			s.high++
		default:
			s.counts[i]++
		}
	}
}

// Reset returns the sketch to its zero state, ready for reuse.
func (s *QuantileSketch) Reset() { *s = QuantileSketch{} }

// Sum returns the running sum of all samples (0 when empty). Exposed so
// callers that need an order-independent mean can keep their own
// canonical-order sum and still cross-check the sketch's.
func (s *QuantileSketch) Sum() float64 { return s.sum }

// Count returns the number of samples observed.
func (s *QuantileSketch) Count() uint64 { return s.count }

// Mean returns the running mean (0 when empty).
func (s *QuantileSketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min and Max return the exact extrema (0 when empty).
func (s *QuantileSketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (0 when empty).
func (s *QuantileSketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// RelativeError returns the worst-case relative error of Quantile for
// in-range samples: half of one sub-bucket.
func (s *QuantileSketch) RelativeError() float64 {
	return 1 / float64(2*sketchSubBuckets)
}

// Quantile returns the p-quantile (p in [0,1], nearest-rank over the
// bucketed counts). The result is clamped into [Min, Max], so exact
// zeros, sub-range, and over-range samples resolve exactly.
func (s *QuantileSketch) Quantile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	// Walk in value order: zeros/negatives, sub-range clamps, buckets,
	// over-range clamps.
	cum := s.zero + s.low
	v := s.min
	if cum < rank {
		found := false
		for i := range s.counts {
			cum += s.counts[i]
			if cum >= rank {
				v = sketchValue(i)
				found = true
				break
			}
		}
		if !found {
			v = s.max // rank falls into the over-range clamp count
		}
	}
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}
