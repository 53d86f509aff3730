package stats

import (
	"math"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{0, 1, 2, 3, 100, 1000} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	wantMean := float64(0+1+2+3+100+1000) / 6
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean = %g, want %g", h.Mean(), wantMean)
	}
}

func TestHistogramInf(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	h.AddInf()
	h.AddInf()
	if h.InfCount() != 2 {
		t.Fatalf("inf count = %d", h.InfCount())
	}
	if got := h.InfFraction(); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("inf fraction = %g", got)
	}
	// Mean considers only finite values.
	if h.Mean() != 5 {
		t.Fatalf("mean = %g", h.Mean())
	}
}

func TestHistogramAddPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	NewHistogram().Add(-1)
}

func TestNonEmptyBuckets(t *testing.T) {
	h := NewHistogram()
	h.Add(0)
	h.Add(3)
	h.Add(3)
	h.AddInf()
	bs := h.NonEmptyBuckets()
	if len(bs) != 3 {
		t.Fatalf("buckets = %+v", bs)
	}
	if bs[0].Lo != 0 || bs[0].Count != 1 {
		t.Fatalf("bucket0 = %+v", bs[0])
	}
	if bs[1].Lo != 2 || bs[1].Hi != 3 || bs[1].Count != 2 {
		t.Fatalf("bucket1 = %+v", bs[1])
	}
	last := bs[len(bs)-1]
	if last.Lo != -1 || last.Count != 1 {
		t.Fatalf("inf bucket = %+v", last)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(s, 0.5); got != 5 {
		t.Fatalf("p50 = %g", got)
	}
	if got := Percentile(s, 0.95); got != 10 {
		t.Fatalf("p95 = %g", got)
	}
	if got := Percentile(s, 0); got != 1 {
		t.Fatalf("p0 = %g", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %g", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	s := []float64{3, 1, 2}
	Percentile(s, 0.5)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatalf("input mutated: %v", s)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("mean = %g", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("mean of empty = %g", got)
	}
}
