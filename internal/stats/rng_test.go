package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s := r.Split()
	// The split stream must differ from the parent's continuation.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream collided with parent %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %g, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %g, want ~1", variance)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := NewRNG(29)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	sum2 := 0
	for _, v := range s {
		sum2 += v
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed contents: %v", s)
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(12345) != Mix64(12345) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(1) == Mix64(2) {
		t.Fatal("Mix64 collision on adjacent inputs")
	}
}

func TestMixFloat01Property(t *testing.T) {
	f := func(x uint64) bool {
		v := MixFloat01(x)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
