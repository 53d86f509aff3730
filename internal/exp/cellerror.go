package exp

// The error taxonomy for sweep failures. A panic anywhere inside one
// design point — engine arithmetic, a tripped check.Assert invariant, a
// poisoned experiment body — is converted at the cell boundary into a
// typed *CellError carrying everything needed to reproduce it: the
// experiment ID, the cell's position in its batch, the full core.Options,
// the panic value, and the goroutine stack at the panic site. One bad
// design point therefore surfaces as a structured, attributable failure
// instead of killing a grid that has hours of other cells in flight.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"dlrmsim/internal/core"
)

// CellError is a panic (or tripped invariant) captured while running one
// design point or experiment body. Fields unknown at the panic site are
// filled by the layers above via attributed copies — the original value is
// never mutated after creation, so concurrent readers need no locking.
type CellError struct {
	// ExpID is the experiment the cell belonged to ("" until the sweep
	// layer attributes it).
	ExpID string
	// CellIndex is the cell's index within its RunMany batch (-1 when the
	// panic happened outside a batch or before attribution).
	CellIndex int
	// Options is the design point, when the panic happened inside an
	// engine cell (zero for experiment-body panics).
	Options core.Options
	// Panic is the recovered value.
	Panic any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error summarizes the failure on one line; the stack is available via
// the Stack field (FormatFailures prints it).
func (e *CellError) Error() string {
	var b strings.Builder
	b.WriteString("panic in ")
	switch {
	case e.ExpID != "" && e.CellIndex >= 0:
		fmt.Fprintf(&b, "%s cell %d", e.ExpID, e.CellIndex)
	case e.ExpID != "":
		b.WriteString(e.ExpID)
	case e.CellIndex >= 0:
		fmt.Fprintf(&b, "cell %d", e.CellIndex)
	default:
		b.WriteString("design point")
	}
	if e.Options.Model.Name != "" {
		fmt.Fprintf(&b, " (%s)", cellLabel(e.Options))
	}
	fmt.Fprintf(&b, ": %v", e.Panic)
	return b.String()
}

// withExpID returns err with the experiment attributed, copying the
// CellError when one is in the chain (the original stays immutable).
func withExpID(err error, id string) error {
	var ce *CellError
	if errors.As(err, &ce) && ce.ExpID == "" {
		cp := *ce
		cp.ExpID = id
		return &cp
	}
	return err
}

// withCellIndex returns err with the batch position attributed.
func withCellIndex(err error, i int) error {
	var ce *CellError
	if errors.As(err, &ce) && ce.CellIndex < 0 {
		cp := *ce
		cp.CellIndex = i
		return &cp
	}
	return err
}

// runEngine is the engine entry runCell calls; tests swap in one that
// panics.
var runEngine = core.RunContext

// runCell executes one engine cell under panic isolation.
func runCell(ctx context.Context, opts core.Options) (rep core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellError{CellIndex: -1, Options: opts, Panic: r, Stack: debug.Stack()}
		}
	}()
	return runEngine(ctx, opts)
}

// safeRun executes one experiment body under panic isolation, so a panic
// in table-building code (not just engine cells) is also typed.
func safeRun(e Experiment, x *Context) (tbl *Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellError{ExpID: e.ID, CellIndex: -1, Panic: r, Stack: debug.Stack()}
		}
	}()
	tbl, err = e.Run(x)
	return tbl, withExpID(err, e.ID)
}

// FormatFailures renders a failed sweep's error as the report dlrmbench
// prints: one block per failed experiment, with the panic stack when the
// failure was a captured panic. It walks errors.Join trees, so the
// errors of several RunAll calls can be joined and reported at once.
func FormatFailures(err error) string {
	var leaves []error
	var walk func(error)
	walk = func(err error) {
		if j, ok := err.(interface{ Unwrap() []error }); ok {
			for _, e := range j.Unwrap() {
				walk(e)
			}
			return
		}
		leaves = append(leaves, err)
	}
	walk(err)
	var b strings.Builder
	fmt.Fprintf(&b, "%d experiment(s) failed:\n", len(leaves))
	for _, e := range leaves {
		fmt.Fprintf(&b, "  %v\n", e)
		var ce *CellError
		if errors.As(e, &ce) && len(ce.Stack) > 0 {
			for _, line := range strings.Split(strings.TrimRight(string(ce.Stack), "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	return b.String()
}
