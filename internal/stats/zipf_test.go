package stats

import (
	"testing"
)

func TestZipfRange(t *testing.T) {
	z, rng := newZipf(1000, 1.1), NewRNG(1)
	for i := 0; i < 50000; i++ {
		v := z.SampleWith(rng)
		if v < 0 || v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

func TestZipfRankZeroHottest(t *testing.T) {
	z, rng := newZipf(10000, 1.2), NewRNG(2)
	counts := make([]int, 10000)
	for i := 0; i < 200000; i++ {
		counts[z.SampleWith(rng)]++
	}
	if counts[0] <= counts[100] {
		t.Fatalf("rank 0 (%d) not hotter than rank 100 (%d)", counts[0], counts[100])
	}
	if counts[0] <= counts[9999] {
		t.Fatalf("rank 0 (%d) not hotter than tail (%d)", counts[0], counts[9999])
	}
}

func TestZipfHigherExponentIsHotter(t *testing.T) {
	unique := func(s float64) float64 {
		const n, draws = 100000, 50000
		z, rng := newZipf(n, s), NewRNG(3)
		seen, u := make([]bool, n), 0
		for i := 0; i < draws; i++ {
			if k := z.SampleWith(rng); !seen[k] {
				seen[k] = true
				u++
			}
		}
		return float64(u) / draws
	}
	uLow, uHigh := unique(0.3), unique(1.5)
	if uHigh >= uLow {
		t.Fatalf("unique fraction should fall with exponent: s=0.3→%.3f, s=1.5→%.3f", uLow, uHigh)
	}
}

func TestZipfSmallN(t *testing.T) {
	z, rng := newZipf(1, 1.0), NewRNG(4)
	for i := 0; i < 100; i++ {
		if z.SampleWith(rng) != 0 {
			t.Fatal("n=1 sampler must always return 0")
		}
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-5, 1}, {10, 0}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("newZipf(%d, %g) did not panic", tc.n, tc.s)
				}
			}()
			newZipf(tc.n, tc.s)
		}()
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z, rng := newZipf(1_000_000, 1.05), NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.SampleWith(rng)
	}
}
