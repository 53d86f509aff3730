package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Histogram is a log2-bucketed histogram of non-negative integer values
// (reuse distances, latencies, queue depths). Bucket i covers
// [2^(i-1), 2^i) for i >= 1; bucket 0 covers {0}. A separate counter tracks
// "infinite" observations (cold misses in reuse-distance analysis).
type Histogram struct {
	buckets []uint64
	inf     uint64
	count   uint64
	sum     float64
	min     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64, max: math.MinInt64}
}

// Add records one observation of value v (v >= 0).
func (h *Histogram) Add(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("stats: Histogram.Add(%d)", v))
	}
	b := bits.Len64(uint64(v))
	for len(h.buckets) <= b {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[b]++
	h.count++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// AddInf records an observation with no finite value (e.g. first touch of a
// line in reuse-distance analysis — a cold miss).
func (h *Histogram) AddInf() {
	h.inf++
	h.count++
}

// Count returns the total number of observations, including infinite ones.
func (h *Histogram) Count() uint64 { return h.count }

// InfCount returns the number of infinite observations.
func (h *Histogram) InfCount() uint64 { return h.inf }

// InfFraction returns the fraction of observations that were infinite.
func (h *Histogram) InfFraction() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.inf) / float64(h.count)
}

// Mean returns the mean of the finite observations.
func (h *Histogram) Mean() float64 {
	finite := h.count - h.inf
	if finite == 0 {
		return 0
	}
	return h.sum / float64(finite)
}

// Min and Max return the extrema of the finite observations (0 if none).
func (h *Histogram) Min() int64 {
	if h.count == h.inf {
		return 0
	}
	return h.min
}

// Max returns the largest finite observation (0 if none).
func (h *Histogram) Max() int64 {
	if h.count == h.inf {
		return 0
	}
	return h.max
}

func bucketRange(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 0
	}
	return int64(1) << (b - 1), int64(1)<<b - 1
}

// Buckets returns (lo, hi, count) triples for the non-empty buckets in
// ascending order, followed by the infinite count as (−1, −1, inf).
type Bucket struct {
	Lo, Hi int64 // Lo=Hi=-1 marks the infinite bucket
	Count  uint64
}

// NonEmptyBuckets lists the populated buckets in ascending value order; the
// infinite bucket, if populated, comes last with Lo=Hi=-1.
func (h *Histogram) NonEmptyBuckets() []Bucket {
	var out []Bucket
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo, hi := bucketRange(b)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: n})
	}
	if h.inf > 0 {
		out = append(out, Bucket{Lo: -1, Hi: -1, Count: h.inf})
	}
	return out
}

// String renders a compact textual sketch of the histogram.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.1f inf=%.1f%%", h.count, h.Mean(), 100*h.InfFraction())
	return sb.String()
}

// Percentile returns the p-quantile (p in [0,1]) of a sample slice. The
// slice is copied, so the caller's data is not reordered. Uses the
// nearest-rank method, which is what serving papers (p95, p99) report.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Percentiles returns the p-quantiles for each p in ps, sorting the
// sample copy ONCE. Every result is bit-identical to calling
// Percentile(samples, p) per p — same copy, same sort, same
// nearest-rank formula — but a summary that reports p50/p95/p99 pays
// for one O(n log n) sort instead of three. The caller's slice is not
// reordered.
func Percentiles(samples []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(samples) == 0 {
		return out
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for i, p := range ps {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		rank := int(math.Ceil(p * float64(len(s))))
		if rank < 1 {
			rank = 1
		}
		out[i] = s[rank-1]
	}
	return out
}

// Mean returns the arithmetic mean of samples (0 for an empty slice).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
