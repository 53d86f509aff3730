package traffic

import (
	"math"
	"testing"

	"dlrmsim/internal/stats"
)

// FuzzArrivalStream throws arbitrary knob combinations at the stream
// constructor. Accepted configs must honor the stream invariants the
// simulator depends on: strictly increasing finite arrivals under the
// peak envelope's rate, ordered disjoint episode windows, and seed
// reproducibility.
func FuzzArrivalStream(f *testing.F) {
	f.Add(uint8(0), 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint64(1))
	f.Add(uint8(1), 4.0, 4.0, 120.0, 60.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint64(7))
	f.Add(uint8(0), 1.0, 0.0, 0.0, 0.0, 2000.0, 0.6, 500.0, 40.0, 5.0, uint64(0xBEEF))
	f.Add(uint8(1), 0.5, 8.0, 50.0, 10.0, 1000.0, 0.9, 300.0, 20.0, 2.0, uint64(42))
	// Non-finite knobs must be rejected: a NaN amplitude once hung Next.
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(0), 1.0, 0.0, 0.0, 0.0, 100.0, nan, 0.0, 0.0, 0.0, uint64(3))
	f.Add(uint8(1), 1.0, 4.0, nan, 60.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint64(3))
	f.Add(uint8(0), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, nan, 40.0, 5.0, uint64(3))
	f.Add(uint8(1), 1.0, inf, 120.0, 60.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint64(3))
	f.Fuzz(func(t *testing.T, model uint8, rate, bFactor, bEvery, bMean,
		day, amp, fEvery, fMean, fFactor float64, seed uint64) {
		cfg := Config{
			Model: Model(model % 2), RatePerMs: rate,
			BurstFactor: bFactor, BurstEveryMs: bEvery, BurstMeanMs: bMean,
			DayMs: day, DiurnalAmp: amp,
			FlashEveryMs: fEvery, FlashMeanMs: fMean, FlashFactor: fFactor,
			Seed: seed,
		}
		s, err := NewStream(cfg)
		if err != nil {
			return // rejected configs are fine; invariants only bind accepted ones
		}
		twin, err := NewStream(cfg)
		if err != nil {
			t.Fatalf("config accepted then rejected: %v", err)
		}
		prev := 0.0
		for i := 0; i < 200; i++ {
			a := s.Next()
			if !(a > prev) || math.IsInf(a, 0) || math.IsNaN(a) {
				t.Fatalf("arrival %d = %g not strictly after %g", i, a, prev)
			}
			if b := twin.Next(); b != a {
				t.Fatalf("same-seed streams diverged at arrival %d: %g vs %g", i, a, b)
			}
			if r := s.RateAt(a); r < 0 || r > s.PeakRate()*(1+1e-12) {
				t.Fatalf("rate %g at t=%g escapes [0, peak=%g]", r, a, s.PeakRate())
			}
			prev = a
		}
		for _, win := range [][]stats.Window{s.BurstWindows(prev), s.FlashWindows(prev)} {
			end := 0.0
			for i, w := range win {
				if w.End <= w.Start || w.Start < end {
					t.Fatalf("window %d not positive/disjoint: %v (prev end %g)", i, w, end)
				}
				end = w.End
			}
		}
	})
}
