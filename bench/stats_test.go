package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 1, 7, 3, 5, 9, 2, 8, 4, 6}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9.0, 2.0, 7.75}, [3]float64{1.625, 3.5, 8.375}},
	} {
		q1, q2, q3 := quartiles(c.in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", c.in, i, got, c.want[i])
			}
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{39, 0, false},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{1070, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 999 samples was not refused")
	}
	xs = append(xs, 1000)
	v, err := percentile(xs, 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
	if v != 990 {
		t.Errorf("nearest-rank p99 of 1..1000 = %g, want 990", v)
	}
	if v, err := percentile(xs, 50); err != nil || v != 500 {
		t.Errorf("p50 of 1..1000 = %g, %v; want 500", v, err)
	}
}
