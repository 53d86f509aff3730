package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestPercentilesMatchesPercentile pins the sort-once batch API to the
// one-at-a-time reference: bit-identical values on random samples.
func TestPercentilesMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1, -0.5, 1.5}
	for _, n := range []int{1, 2, 3, 10, 97, 1000} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.ExpFloat64() * 50
		}
		got := Percentiles(samples, ps...)
		for i, p := range ps {
			want := Percentile(samples, p)
			if got[i] != want {
				t.Fatalf("n=%d p=%g: Percentiles=%v Percentile=%v", n, p, got[i], want)
			}
		}
	}
	// Empty input: zeros, matching Percentile's convention.
	for _, v := range Percentiles(nil, 0.5, 0.99) {
		if v != 0 {
			t.Fatalf("Percentiles(nil) = %v", v)
		}
	}
}

func TestPercentilesDoesNotMutate(t *testing.T) {
	s := []float64{3, 1, 2}
	Percentiles(s, 0.5, 0.99)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatalf("input mutated: %v", s)
	}
}

// TestPercentilesAllocs proves the batch API allocates exactly twice
// (the sample copy and the result slice) regardless of how many
// quantiles are requested — versus 3 copies for 3 Percentile calls.
func TestPercentilesAllocs(t *testing.T) {
	samples := make([]float64, 4096)
	rng := rand.New(rand.NewSource(7))
	for i := range samples {
		samples[i] = rng.Float64()
	}
	ps := []float64{0.5, 0.95, 0.99}
	allocs := testing.AllocsPerRun(50, func() {
		Percentiles(samples, ps...)
	})
	if allocs > 2 {
		t.Fatalf("Percentiles allocated %.0f times, want <= 2", allocs)
	}
}

// TestQuantileSketchErrorBound checks the sketch against exact
// nearest-rank on heavy-tailed samples: every quantile within the
// advertised relative error.
func TestQuantileSketchErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 2000 + trial*3000
		samples := make([]float64, n)
		var sk QuantileSketch
		for i := range samples {
			// Lognormal-ish latencies spanning several octaves.
			v := math.Exp(rng.NormFloat64()*1.5 + 3)
			samples[i] = v
			sk.Add(v)
		}
		bound := sk.RelativeError() * 2 // half-bucket rep + rank ties at edges
		for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			exact := Percentile(samples, p)
			got := sk.Quantile(p)
			if rel := math.Abs(got-exact) / exact; rel > bound {
				t.Fatalf("trial %d p=%g: sketch=%g exact=%g rel err %.4f > %.4f",
					trial, p, got, exact, rel, bound)
			}
		}
	}
}

func TestQuantileSketchExactStats(t *testing.T) {
	var sk QuantileSketch
	vals := []float64{0, 1.5, 3, 100, 0.25}
	var sum float64
	for _, v := range vals {
		sk.Add(v)
		sum += v
	}
	if sk.Count() != uint64(len(vals)) {
		t.Fatalf("count = %d", sk.Count())
	}
	if sk.Min() != 0 || sk.Max() != 100 {
		t.Fatalf("min/max = %g/%g", sk.Min(), sk.Max())
	}
	if math.Abs(sk.Mean()-sum/float64(len(vals))) > 1e-12 {
		t.Fatalf("mean = %g", sk.Mean())
	}
	// Extremes resolve exactly: p=0 is the min, p=1 the max (clamped).
	if got := sk.Quantile(0); got != 0 {
		t.Fatalf("q0 = %g", got)
	}
	if got := sk.Quantile(1); got != 100 {
		t.Fatalf("q1 = %g", got)
	}
	sk.Reset()
	if sk.Count() != 0 || sk.Quantile(0.5) != 0 || sk.Sum() != 0 {
		t.Fatal("Reset did not zero the sketch")
	}
}

func TestQuantileSketchEmpty(t *testing.T) {
	var sk QuantileSketch
	if sk.Quantile(0.5) != 0 || sk.Mean() != 0 || sk.Min() != 0 || sk.Max() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
}

// TestQuantileSketchClamps drives samples outside the representable
// range: they must still count, and quantiles must resolve to the
// exact min/max rather than a bucket representative.
func TestQuantileSketchClamps(t *testing.T) {
	var sk QuantileSketch
	tiny := math.Ldexp(1, sketchMinExp-5) // below range
	huge := math.Ldexp(1, sketchMinExp+sketchOctaves+5)
	sk.Add(tiny)
	sk.Add(huge)
	sk.Add(math.Inf(1))
	if sk.Count() != 3 {
		t.Fatalf("count = %d", sk.Count())
	}
	if got := sk.Quantile(0.01); got != tiny {
		t.Fatalf("low quantile = %g, want %g", got, tiny)
	}
	if got := sk.Quantile(1); !math.IsInf(got, 1) {
		t.Fatalf("high quantile = %g", got)
	}
}

// TestQuantileSketchAddAllocs: the whole point is flat memory — Add
// must never allocate.
func TestQuantileSketchAddAllocs(t *testing.T) {
	var sk QuantileSketch
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 20
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, v := range vals {
			sk.Add(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("Add allocated %.0f times, want 0", allocs)
	}
}

// TestSketchIndexMonotone: bucket index must be non-decreasing in the
// value, or rank walks would misorder quantiles.
func TestSketchIndexMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prevV, prevI := 0.0, -1
	vals := make([]float64, 0, 4096)
	for i := 0; i < 4096; i++ {
		vals = append(vals, math.Exp(rng.NormFloat64()*4))
	}
	// Also hit exact bucket boundaries.
	for e := sketchMinExp; e < sketchMinExp+sketchOctaves; e++ {
		vals = append(vals, math.Ldexp(1, e))
	}
	sortFloat64s(vals)
	for _, v := range vals {
		i := sketchIndex(v)
		if i < 0 {
			continue
		}
		if prevI >= 0 && i < prevI {
			t.Fatalf("index not monotone: f(%g)=%d after f(%g)=%d", v, i, prevV, prevI)
		}
		// The representative must sit inside a half-width of v's bucket.
		rep := sketchValue(i)
		if rel := math.Abs(rep-v) / v; rel > 1.0/float64(sketchSubBuckets) {
			t.Fatalf("rep %g too far from %g (rel %.4f)", rep, v, rel)
		}
		prevV, prevI = v, i
	}
}

func sortFloat64s(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
