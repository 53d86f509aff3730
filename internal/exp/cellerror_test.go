package exp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/trace"
)

// panicProvider is a BatchProvider whose first use panics — a stand-in for
// any bug deep inside one design point's simulation.
type panicProvider struct{}

func (panicProvider) Batch(batchIdx, tableIdx int) trace.TableBatch {
	panic("panicProvider: boom")
}

// panicOptions returns a completed cell that panics inside the engine.
func panicOptions(x *Context) core.Options {
	return x.complete(core.Options{Model: x.Cfg.model(dlrm.RM2Small()), Trace: panicProvider{}})
}

// registerTemp registers an experiment for one test and removes it on
// cleanup, so the registry-wide determinism tests never see it.
func registerTemp(t *testing.T, e Experiment) {
	t.Helper()
	register(e)
	t.Cleanup(func() { delete(registry, e.ID) })
}

// TestRunCellPanicCaptured: a panic inside the engine surfaces as a typed
// *CellError carrying the cell's options, the panic value, and the stack —
// not as a process crash.
func TestRunCellPanicCaptured(t *testing.T) {
	x := tinyContext()
	_, err := x.Run(panicOptions(x))
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CellError", err, err)
	}
	if ce.CellIndex != -1 {
		t.Errorf("CellIndex = %d, want -1 before attribution", ce.CellIndex)
	}
	if ce.Options.Trace == nil {
		t.Error("CellError lost the failing cell's options")
	}
	if len(ce.Stack) == 0 || !strings.Contains(string(ce.Stack), "panicProvider") {
		t.Error("CellError stack does not reach the panic site")
	}
	if s, ok := ce.Panic.(string); !ok || !strings.Contains(s, "boom") {
		t.Errorf("Panic = %v, want the panic value", ce.Panic)
	}
}

// TestRunManyAttributesCellIndex: a failing cell fails RunMany's batch,
// sequential or pooled, and RunMany stamps the failing cell's index
// without mutating the memoized original (two batches sharing the failed
// memo cell each see their own index).
func TestRunManyAttributesCellIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		x := tinyContext().WithParallelism(context.Background(), workers)
		good := x.complete(core.Options{Model: x.Cfg.model(dlrm.RM2Small()), Hotness: trace.LowHot, Cores: 2})
		_, err := x.RunMany([]core.Options{good, panicOptions(x)})
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: err = %v, want *CellError", workers, err)
		}
		if ce.CellIndex != 1 {
			t.Errorf("workers=%d: CellIndex = %d, want 1", workers, ce.CellIndex)
		}
		_, err = x.RunMany([]core.Options{panicOptions(x)})
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: memoized failure not replayed", workers)
		}
		if ce.CellIndex != 0 {
			t.Errorf("workers=%d: second batch CellIndex = %d, want 0 (original mutated?)", workers, ce.CellIndex)
		}
	}
}

// TestRunAllKeepGoingIsolatesFailure: one deliberately panicking experiment
// does not stop the sweep — every other table completes, the failure comes
// back as a structured *CellError with the experiment attributed, and the
// plain RunAll path still fails fast on the same registry.
func TestRunAllKeepGoingIsolatesFailure(t *testing.T) {
	registerTemp(t, Experiment{
		ID:    "zz-panic",
		Title: "deliberately panicking cell (test only)",
		Run: func(x *Context) (*Table, error) {
			_, err := x.Run(panicOptions(x))
			return nil, err
		},
	})
	ids := []string{"fig1", "zz-panic", "fig10b"}
	for _, workers := range []int{1, 4} {
		tables, failures, err := RunAllKeepGoing(context.Background(), tinyContext(), ids, workers)
		if err != nil {
			t.Fatalf("workers=%d: pre-flight error: %v", workers, err)
		}
		if len(failures) != 1 || failures[0].ID != "zz-panic" {
			t.Fatalf("workers=%d: failures = %+v, want exactly zz-panic", workers, failures)
		}
		var ce *CellError
		if !errors.As(failures[0].Err, &ce) {
			t.Fatalf("workers=%d: failure err = %v, want *CellError", workers, failures[0].Err)
		}
		if ce.ExpID != "zz-panic" {
			t.Errorf("workers=%d: ExpID = %q, want zz-panic", workers, ce.ExpID)
		}
		if tables[0] == nil || tables[2] == nil || tables[1] != nil {
			t.Errorf("workers=%d: tables = [%v %v %v], want only index 1 nil",
				workers, tables[0] != nil, tables[1] != nil, tables[2] != nil)
		}
		report := FormatFailures(failures)
		if !strings.Contains(report, "zz-panic") || !strings.Contains(report, "panicProvider") {
			t.Errorf("workers=%d: FormatFailures output missing ID or stack:\n%s", workers, report)
		}

		if _, err := RunAll(context.Background(), tinyContext(), ids, workers); err == nil {
			t.Errorf("workers=%d: RunAll completed over a panicking experiment", workers)
		}
	}
}

// TestSafeRunCatchesExperimentBodyPanic: a panic in the experiment body
// itself (outside any cell) is also contained and attributed.
func TestSafeRunCatchesExperimentBodyPanic(t *testing.T) {
	e := Experiment{
		ID:    "zz-body-panic",
		Title: "body panic",
		Run:   func(x *Context) (*Table, error) { panic("body boom") },
	}
	_, err := safeRun(e, tinyContext())
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if ce.ExpID != "zz-body-panic" || ce.Panic != "body boom" {
		t.Errorf("CellError = %+v, want body panic attributed", ce)
	}
}
