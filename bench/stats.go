package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer, and one slow sample decides the value.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) and 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// rule Python's statistics.quantiles(xs, n=4) uses (method "exclusive"),
// so spreads printed here match the ones computed from the same values
// with that module.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile of xs, refusing it
// when fewer than minBeyond samples lie beyond it — so a p99 needs at
// least 1,000 samples and a p95 at least 200.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if beyond := float64(n) * (100 - p) / 100; n == 0 || beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %.1f",
			p, minBeyond, n, float64(n)*(100-p)/100)
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// tailLadder is the set of tail percentiles a timing may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it; ok is false when none has.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}
