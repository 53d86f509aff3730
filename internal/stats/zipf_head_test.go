package stats

import (
	"math"
	"sync"
	"testing"
)

// headTally counts how a head table settled the variates it was shown.
type headTally struct{ decided, fallback int }

// checkHead asserts that the head table's verdict for u is the one the
// reference iteration reaches: the same rank when it accepts, a draw
// again when it rejects. A fallback defers to iterate and always holds.
// (No t.Helper: it runs millions of times, and every failure message
// names the variate.)
func checkHead(t *testing.T, z *Zipf, u float64, tally *headTally) {
	got := z.head.decide(u)
	if got == headFallback {
		tally.fallback++
		return
	}
	tally.decided++
	rank, ok := z.iterate(u)
	switch {
	case got == headReject && ok:
		t.Fatalf("n=%g s=%g u=%v: table rejects, iterate accepts rank %d", z.n, z.s, u, rank)
	case got >= 0 && !ok:
		t.Fatalf("n=%g s=%g u=%v: table accepts rank %d, iterate rejects", z.n, z.s, u, got)
	case got >= 0 && rank != got:
		t.Fatalf("n=%g s=%g u=%v: table accepts rank %d, iterate rank %d", z.n, z.s, u, got, rank)
	}
}

// checkHeadAround probes u at b and the ulps either side of it.
func checkHeadAround(t *testing.T, z *Zipf, b float64, ulps int, tally *headTally) {
	checkHead(t, z, b, tally)
	down, up := b, b
	for i := 0; i < ulps; i++ {
		down = math.Nextafter(down, math.Inf(-1))
		up = math.Nextafter(up, math.Inf(1))
		checkHead(t, z, down, tally)
		checkHead(t, z, up, tally)
	}
}

// unsharedZipf builds a shared-style sampler with its head table but
// outside the NewSharedZipf memo, so tests and fuzzing over arbitrary
// (n, s) leave the process-wide memo alone.
func unsharedZipf(n int, s float64) *Zipf {
	z := NewZipf(nil, n, s)
	z.head = newZipfHead(z)
	return z
}

// TestZipfHeadMatchesIterate drives the head table and the reference
// iteration over the stream-pin grid: 1M variates drawn exactly as
// SampleWith draws them, then every boundary the table stores — each
// rank boundary h(k+0.5), shortcut boundary h(k-sCut) and acceptance
// threshold, and each guard edge — walked ±300 ulps and probed at
// ±1e-9 and ±2e-9 relative.
func TestZipfHeadMatchesIterate(t *testing.T) {
	cell := uint64(0)
	for _, n := range zipfPinRows {
		for _, s := range zipfPinExponents {
			cell++
			z := unsharedZipf(n, s)
			if z.head == nil {
				if n >= 2 && s != 1 {
					t.Fatalf("n=%d s=%g: head table disabled", n, s)
				}
				continue
			}
			var random, edges headTally
			r := NewRNG(SplitSeed(0x4EAD, cell))
			for i := 0; i < 1_000_000; i++ {
				checkHead(t, z, z.hImaxPlus1+r.Float64()*(z.hx0-z.hImaxPlus1), &random)
			}
			for i, row := range z.head.rows[:len(z.head.rows)-1] {
				k := float64(i + 1)
				for _, b := range []float64{z.h(k + 0.5), z.h(k - z.sCut), row.acc} {
					checkHeadAround(t, z, b, 300, &edges)
					for _, rel := range []float64{-2e-9, -1e-9, 1e-9, 2e-9} {
						checkHead(t, z, b+rel*math.Abs(b), &edges)
					}
				}
				for _, b := range []float64{row.lo, row.hi, row.cutLo, row.cutHi} {
					if !math.IsInf(b, 0) {
						checkHeadAround(t, z, b, 300, &edges)
					}
				}
			}
			share := float64(random.decided) / float64(random.decided+random.fallback)
			t.Logf("n=%d s=%g: table decides %.1f%% of iterations, %d boundary probes decided",
				n, s, 100*share, edges.decided)
			// The bench table (50,000 rows, HighHot) draws ~95% of its
			// variates inside the head's covered range.
			if n == 50_000 && s == 1.326 && share < 0.9 {
				t.Errorf("n=%d s=%g: table decides only %.1f%% of iterations", n, s, 100*share)
			}
		}
	}
}

// TestSharedZipfMemoized: NewSharedZipf hands every caller the one
// immutable sampler per (n, s), and the sampler it hands out carries the
// head table.
func TestSharedZipfMemoized(t *testing.T) {
	a, b := NewSharedZipf(50_000, 1.326), NewSharedZipf(50_000, 1.326)
	if a != b {
		t.Fatal("NewSharedZipf rebuilt the sampler for the same (n, s)")
	}
	if a.head == nil {
		t.Fatal("shared sampler has no head table")
	}
	if NewSharedZipf(50_001, 1.326) == a {
		t.Fatal("different table heights share a sampler")
	}
	if NewZipf(nil, 50_000, 1.326).head != nil {
		t.Fatal("a NewZipf sampler carries a head table")
	}
	if allocs := testing.AllocsPerRun(100, func() { NewSharedZipf(50_000, 1.326) }); allocs != 0 {
		t.Fatalf("memoized NewSharedZipf allocates %.0f objects, want 0", allocs)
	}
}

// TestSharedZipfConcurrent: goroutines that race to build and sample one
// (n, s) through the memo all get the one sampler, and it draws the
// stream a table-free sampler draws.
func TestSharedZipfConcurrent(t *testing.T) {
	const n, s, draws = 4321, 1.234, 2000
	want := make([]int, draws)
	ref, r := NewZipf(nil, n, s), NewRNG(9)
	for i := range want {
		want[i] = ref.SampleWith(r)
	}
	var wg sync.WaitGroup
	got := make([]*Zipf, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z, r := NewSharedZipf(n, s), NewRNG(9)
			got[g] = z
			for i, w := range want {
				if rank := z.SampleWith(r); rank != w {
					t.Errorf("goroutine %d draw %d: rank %d, want %d", g, i, rank, w)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, z := range got {
		if z != got[0] {
			t.Fatalf("goroutine %d got a different sampler", g)
		}
	}
}

// FuzzZipfHead asserts the head table's verdicts equal the reference
// iteration's for arbitrary table heights, exponents and variates: at
// the variate v maps to, at the ulps beside it, and around the
// boundaries of the row v selects.
func FuzzZipfHead(f *testing.F) {
	f.Add(50_000, 1.326, 0.5)
	f.Add(50_000, 0.893, 0.25)
	f.Add(2, 2.5, 0.999)
	f.Add(1024, 1.001, 0.0)
	f.Add(1025, 0.999, 0.75)
	f.Fuzz(func(t *testing.T, n int, s, v float64) {
		n = 2 + int(uint(n)%2_000_000)
		if !(s > 0 && s <= 8) || math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		z := unsharedZipf(n, s)
		if z.head == nil {
			if math.Abs(1-s) >= 1e-3 {
				t.Fatalf("n=%d s=%g: head table disabled", n, s)
			}
			return
		}
		v = math.Abs(v - math.Trunc(v))
		var tally headTally
		checkHeadAround(t, z, z.hImaxPlus1+v*(z.hx0-z.hImaxPlus1), 4, &tally)
		rows := z.head.rows[:len(z.head.rows)-1]
		i := int(v * float64(len(rows)))
		row := rows[i]
		k := float64(i + 1)
		for _, b := range []float64{z.h(k + 0.5), z.h(k - z.sCut), row.acc, row.lo, row.hi, row.cutLo, row.cutHi} {
			if !math.IsInf(b, 0) {
				checkHeadAround(t, z, b, 4, &tally)
			}
		}
	})
}
