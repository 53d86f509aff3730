package stats

import "slices"

// Window is one [Start, End) interval of a Timeline. Factor is the
// owner's per-window value (a slowdown window's service-time
// multiplier); timelines that need none leave it zero.
type Window struct {
	Start, End, Factor float64
}

// Timeline is a start-ordered window list. A seeded timeline
// materializes itself lazily from its own split stream — alternating
// exponential gaps and durations — so its windows are a pure function
// of (seed, stream) no matter when, or in what order, they are asked
// about. An unseeded one holds whatever its owner appended to Win. The
// zero Timeline is empty and unseeded.
type Timeline struct {
	Win []Window

	// The lazy source; gapMean 0 means Win is complete.
	rng                      RNG
	gapMean, durMean, factor float64
	horizon                  float64 // materialized through this instant
}

// Reset rewinds tl to an empty, unseeded timeline, keeping Win's
// capacity.
func (tl *Timeline) Reset() { *tl = Timeline{Win: tl.Win[:0]} }

// Seed rewinds tl and, when gapMean is positive, arms its lazy stream
// SplitSeed(seed, stream): gaps of mean gapMean, each followed by a
// window of mean length durMean carrying factor.
func (tl *Timeline) Seed(seed, stream uint64, gapMean, durMean, factor float64) {
	tl.Reset()
	if gapMean > 0 {
		tl.rng = SeededRNG(SplitSeed(seed, stream))
		tl.gapMean, tl.durMean, tl.factor = gapMean, durMean, factor
	}
}

// Extend materializes lazy windows until the timeline covers t. A
// window too short for the clock to resolve at its start (End == Start)
// is drawn but not kept, so every kept window is non-empty.
func (tl *Timeline) Extend(t float64) {
	for tl.gapMean > 0 && tl.horizon <= t {
		start := tl.horizon + tl.rng.ExpFloat64()*tl.gapMean
		end := start + tl.rng.ExpFloat64()*tl.durMean
		if end > start {
			tl.Win = append(tl.Win, Window{start, end, tl.factor})
		}
		tl.horizon = end
	}
}

// At returns the window holding t, if any. Windows must be disjoint.
// The materialized list answers any t below the horizon, so queries
// need not be monotone in t.
func (tl *Timeline) At(t float64) (Window, bool) {
	tl.Extend(t)
	lo, hi := 0, len(tl.Win)
	for lo < hi { // first window with start > t
		mid := (lo + hi) / 2
		if tl.Win[mid].Start <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && t < tl.Win[lo-1].End {
		return tl.Win[lo-1], true
	}
	return Window{}, false
}

// Before returns a copy of every window starting before t.
func (tl *Timeline) Before(t float64) []Window {
	tl.Extend(t)
	n := 0
	for n < len(tl.Win) && tl.Win[n].Start < t {
		n++
	}
	return slices.Clone(tl.Win[:n])
}
