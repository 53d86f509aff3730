// Package check provides opt-in runtime invariant assertions for the
// simulators. Assertions are compiled in everywhere but cost one branch on
// a package-level bool when disabled, so the benchmarked hot paths pay
// nothing by default; the CLIs' -check flag (and any test that wants the
// extra scrutiny) enables them process-wide.
//
// An assertion failure panics: it indicates simulator state that should be
// impossible under any configuration that passed Validate(), i.e. a bug in
// the engine rather than bad user input. The experiment runner's panic
// isolation converts such a panic into a typed exp.CellError, so a tripped
// invariant in one sweep cell surfaces as a structured failure instead of
// killing the whole grid.
package check

import (
	"fmt"
	"math"
)

// Enabled turns runtime invariant assertions on. It is set once at process
// start (CLI flag parsing, test setup) before any simulation runs; it must
// not be toggled while simulations are in flight.
var Enabled bool

// Assert panics with a formatted "invariant violated" message when
// assertions are enabled and cond is false. Callers should keep argument
// construction trivial (or guard expensive ones with check.Enabled) so the
// disabled path stays free.
func Assert(cond bool, format string, args ...any) {
	if Enabled && !cond {
		panic(fmt.Sprintf("invariant violated: "+format, args...))
	}
}

// Finite reports whether v is neither NaN nor ±Inf. Simulator result
// paths assert it on every summary statistic they emit — a non-finite
// latency or utilization always means an engine bug, never bad input.
func Finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// NonNeg and Positive are the range checks every float knob's
// validation uses: NaN fails every ordered comparison and +Inf is
// rejected outright, so a config that passes them keeps a simulation's
// arithmetic finite.
func NonNeg(x float64) bool   { return x >= 0 && !math.IsInf(x, 1) }
func Positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
