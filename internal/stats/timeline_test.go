package stats

import (
	"slices"
	"testing"
)

// TestTimelineAt pins the lazy timeline: windows alternate gaps and
// durations, each carries the seeded factor, and membership answers
// correctly for out-of-order queries below the materialized horizon.
func TestTimelineAt(t *testing.T) {
	var tl Timeline
	tl.Seed(7, 0, 10, 3, 4)
	tl.Extend(200)
	if len(tl.Win) < 2 {
		t.Fatal("fewer than two windows materialized over 200 ms with a 10 ms mean gap")
	}
	prevEnd := 0.0
	for i, w := range tl.Win {
		if w.Start < prevEnd || w.End <= w.Start || w.Factor != 4 {
			t.Fatalf("window %d malformed: %+v after end %g", i, w, prevEnd)
		}
		prevEnd = w.End
	}
	// Probe forwards then backwards: answers must agree with the windows.
	for _, p := range []float64{0, 5, 50, 150, 199, 120, 3} {
		var want Window
		for _, w := range tl.Win {
			if p >= w.Start && p < w.End {
				want = w
			}
		}
		if got, in := tl.At(p); in != (want.End > 0) || got != want {
			t.Errorf("At(%g) = %+v, %v; want %+v", p, got, in, want)
		}
	}
	w0 := tl.Win[0]
	if _, in := tl.At(w0.Start + (w0.End-w0.Start)/2); !in {
		t.Error("midpoint of first window reported outside")
	}
	if _, in := tl.At(w0.End); in && w0.End != tl.Win[1].Start {
		t.Error("window end (exclusive) reported inside")
	}
}

// TestTimelineSeeded: windows are a pure function of (seed, stream) —
// however far and in whatever order a timeline was asked, a re-seeded
// one rebuilds the same list — and Before copies a start-bounded prefix.
func TestTimelineSeeded(t *testing.T) {
	var a, b Timeline
	a.Seed(9, 3, 20, 5, 0)
	a.At(500)
	a.At(40)
	b.Seed(9, 3, 20, 5, 0)
	got := b.Before(300)
	if len(got) == 0 || !slices.Equal(got, a.Win[:len(got)]) {
		t.Fatalf("same-seed timelines differ: %v vs %v", got, a.Win)
	}
	if last := got[len(got)-1]; last.Start >= 300 || (len(b.Win) > len(got) && b.Win[len(got)].Start < 300) {
		t.Errorf("Before(300) is not the windows starting before 300: %v", got)
	}
	got[0].Start = -1
	if b.Win[0].Start == -1 {
		t.Error("Before returned the timeline's own storage")
	}
	b.Seed(9, 4, 20, 5, 0)
	if w := b.Before(300); len(w) > 0 && w[0] == a.Win[0] {
		t.Error("a different stream reproduced the first window")
	}
	b.Seed(9, 3, 0, 5, 0)
	if _, in := b.At(1e6); in || len(b.Win) != 0 {
		t.Error("a timeline with no gap mean materialized windows")
	}
}
