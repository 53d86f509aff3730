package traffic

import (
	"encoding/binary"
	"math"
	"testing"

	"dlrmsim/internal/stats"
)

// fuzzKnobs decodes fuzz bytes into n float64 knobs, eight little-endian
// bytes each read as the float's IEEE bits (zero once the data runs out).
// A mutated sign or exponent byte lands anywhere in the float64 exponent
// range, so knobs come log-uniformly from the subnormals to MaxFloat64,
// either sign, with 0, NaN and ±Inf among them.
func fuzzKnobs(data []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		var b [8]byte
		data = data[copy(b[:], data):]
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	return out
}

// knobBytes encodes knobs the way fuzzKnobs decodes them.
func knobBytes(knobs ...float64) []byte {
	var out []byte
	for _, k := range knobs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(k))
	}
	return out
}

// fuzzArrivals is how many arrivals each accepted config draws; maxWork
// bounds what they may cost in thinning candidates and episode windows.
// A config past the bound is valid but too slow to fuzz.
const (
	fuzzArrivals = 200
	maxWork      = 1e6
)

// streamWork bounds the thinning candidates and episode windows n
// arrivals of cfg cost. They span at most n/(RatePerMs·(1−DiurnalAmp))
// ms, since the rate never falls below that floor; the candidate clock
// ticks at the peak rate and stops at +Inf once past MaxFloat64.
func streamWork(cfg Config, n float64) float64 {
	span := min(n/(cfg.RatePerMs*(1-cfg.DiurnalAmp)), math.MaxFloat64)
	work := span * cfg.peak()
	if cfg.Model == MMPP {
		work += span / (cfg.BurstEveryMs + cfg.BurstMeanMs)
	}
	if cfg.FlashEveryMs > 0 {
		work += span / (cfg.FlashEveryMs + cfg.FlashMeanMs)
	}
	return work
}

// FuzzArrivalStream throws arbitrary knob combinations, each float drawn
// log-uniformly over the whole float64 range, at the stream constructor.
// Accepted configs must honor the stream invariants the simulator
// depends on: arrivals never NaN, strictly increasing while finite, and
// +Inf for good once the clock overflows to it (a stream whose rate is
// near the smallest float runs past MaxFloat64 in a few dozen arrivals);
// finite arrivals under the peak envelope's rate; ordered disjoint
// episode windows; and seed reproducibility.
func FuzzArrivalStream(f *testing.F) {
	f.Add(uint8(0), knobBytes(2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), uint64(1))
	f.Add(uint8(1), knobBytes(4.0, 4.0, 120.0, 60.0, 0.0, 0.0, 0.0, 0.0, 0.0), uint64(7))
	f.Add(uint8(0), knobBytes(1.0, 0.0, 0.0, 0.0, 2000.0, 0.6, 500.0, 40.0, 5.0), uint64(0xBEEF))
	f.Add(uint8(1), knobBytes(0.5, 8.0, 50.0, 10.0, 1000.0, 0.9, 300.0, 20.0, 2.0), uint64(42))
	// Non-finite knobs must be rejected: a NaN amplitude once hung Next.
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(0), knobBytes(1.0, 0.0, 0.0, 0.0, 100.0, nan, 0.0, 0.0, 0.0), uint64(3))
	f.Add(uint8(1), knobBytes(1.0, 4.0, nan, 60.0, 0.0, 0.0, 0.0, 0.0, 0.0), uint64(3))
	f.Add(uint8(0), knobBytes(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, nan, 40.0, 5.0), uint64(3))
	f.Add(uint8(1), knobBytes(1.0, inf, 120.0, 60.0, 0.0, 0.0, 0.0, 0.0, 0.0), uint64(3))
	// The termination probes: streams whose Next once never returned.
	for _, p := range terminationProbes {
		c := p.cfg
		f.Add(uint8(c.Model), knobBytes(c.RatePerMs, c.BurstFactor, c.BurstEveryMs, c.BurstMeanMs,
			c.DayMs, c.DiurnalAmp, c.FlashEveryMs, c.FlashMeanMs, c.FlashFactor), c.Seed)
	}
	// A day too short for the clock to resolve (its cosine was NaN), and
	// bursts too short to resolve (their windows were empty).
	f.Add(uint8(1), knobBytes(10.0, 2.0, 30.0, 8e-320, 8e-320, 2e-322, 0.0, 0.0, 0.0), uint64(1))
	f.Add(uint8(1), knobBytes(16.0, 16.0, 16.0, 2e-322, 0.0, 0.0, 0.0, 0.0, 0.0), uint64(89))
	f.Fuzz(func(t *testing.T, model uint8, knobs []byte, seed uint64) {
		k := fuzzKnobs(knobs, 9)
		cfg := Config{
			Model: Model(model % 2), RatePerMs: k[0],
			BurstFactor: k[1], BurstEveryMs: k[2], BurstMeanMs: k[3],
			DayMs: k[4], DiurnalAmp: k[5],
			FlashEveryMs: k[6], FlashMeanMs: k[7], FlashFactor: k[8],
			Seed: seed,
		}
		s, err := NewStream(cfg)
		if err != nil {
			return // rejected configs are fine; invariants only bind accepted ones
		}
		if streamWork(cfg, fuzzArrivals) > maxWork {
			return // valid, but too slow to draw here
		}
		twin, err := NewStream(cfg)
		if err != nil {
			t.Fatalf("config accepted then rejected: %v", err)
		}
		prev, overflowed := 0.0, false // prev: the last finite arrival
		for i := 0; i < fuzzArrivals; i++ {
			a, b := s.Next(), twin.Next()
			switch {
			case math.IsInf(a, 1):
				overflowed = true
			case overflowed || !(a > prev): // NaN fails too
				t.Fatalf("arrival %d = %g not strictly after %g, or finite after +Inf", i, a, prev)
			}
			if b != a {
				t.Fatalf("same-seed streams diverged at arrival %d: %g vs %g", i, a, b)
			}
			if overflowed {
				continue
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
