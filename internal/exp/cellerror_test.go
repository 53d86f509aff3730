package exp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/trace"
)

// panicSeed marks the cells panicEngine makes panic.
const panicSeed = 0xB00

// panicEngine makes runCell's engine panic, until the test ends, on every
// cell seeded panicSeed — a stand-in for any bug deep inside one design
// point's simulation. Other cells run normally.
func panicEngine(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { runEngine = core.RunContext })
	runEngine = func(ctx context.Context, opts core.Options) (core.Report, error) {
		if opts.Seed == panicSeed {
			panic("panicEngine: boom")
		}
		return core.RunContext(ctx, opts)
	}
}

// panicOptions returns a completed cell that panicEngine makes panic.
func panicOptions(x *Context) core.Options {
	return x.complete(core.Options{Model: x.Cfg.model(dlrm.RM2Small()), Seed: panicSeed})
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
	panicEngine(t)
	x := tinyContext()
	_, err := x.Run(panicOptions(x))
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CellError", err, err)
	}
	if ce.CellIndex != -1 {
		t.Errorf("CellIndex = %d, want -1 before attribution", ce.CellIndex)
	}
	if ce.Options.Seed != panicSeed {
		t.Error("CellError lost the failing cell's options")
	}
	if len(ce.Stack) == 0 || !strings.Contains(string(ce.Stack), "panicEngine") {
		t.Error("CellError stack does not reach the panic site")
	}
	if s, ok := ce.Panic.(string); !ok || !strings.Contains(s, "boom") {
		t.Errorf("Panic = %v, want the panic value", ce.Panic)
	}
}

// TestRunManyAttributesCellIndex: a failing cell fails RunMany's batch,
// sequential or pooled, and RunMany stamps the failing cell's index
// without mutating the memoized original (two batches sharing the failed
// memo cell each see their own index). Both cells leave the CPU zero, so
// the error message and the good cell's MANIFEST line name the platform
// the cell resolved to.
func TestRunManyAttributesCellIndex(t *testing.T) {
	panicEngine(t)
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		x := tinyContext().WithParallelism(context.Background(), workers).WithCheckpoint(openTestCheckpoint(t, dir))
		good := x.complete(core.Options{Model: x.Cfg.model(dlrm.RM2Small()), Hotness: trace.LowHot, Cores: 2})
		_, err := x.RunMany([]core.Options{good, panicOptions(x)})
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: err = %v, want *CellError", workers, err)
		}
		if ce.CellIndex != 1 {
			t.Errorf("workers=%d: CellIndex = %d, want 1", workers, ce.CellIndex)
		}
		if !strings.Contains(ce.Error(), "|CSL|") {
			t.Errorf("workers=%d: error does not name the resolved CPU: %v", workers, ce)
		}
		if manifest, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !strings.Contains(string(manifest), "|CSL|") {
			t.Errorf("workers=%d: MANIFEST does not name the resolved CPU (err %v):\n%s", workers, err, manifest)
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

// TestRunAllIsolatesFailure: failing experiments do not stop the sweep.
// At any worker count every other table completes, byte-identical to a
// sweep without the failures, and the error names every failed
// experiment in ids order, carrying the panicking cell's *CellError with
// the experiment attributed and the stack that FormatFailures prints.
func TestRunAllIsolatesFailure(t *testing.T) {
	panicEngine(t)
	registerTemp(t, Experiment{
		ID:    "zz-panic",
		Title: "deliberately panicking cell (test only)",
		Run: func(x *Context) (*Table, error) {
			_, err := x.Run(panicOptions(x))
			return nil, err
		},
	})
	registerTemp(t, Experiment{
		ID:    "zz-body-panic",
		Title: "deliberately panicking body (test only)",
		Run:   func(x *Context) (*Table, error) { panic("body boom") },
	})
	clean, err := RunAll(context.Background(), tinyContext(), []string{"fig1", "fig10b"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, clean)
	ids := []string{"fig1", "zz-panic", "fig10b", "zz-body-panic"}
	for _, workers := range []int{1, 4} {
		tables, err := RunAll(context.Background(), tinyContext(), ids, workers)
		if tables == nil || tables[1] != nil || tables[3] != nil {
			t.Fatalf("workers=%d: tables = %v, want nil only at indexes 1 and 3", workers, tables)
		}
		if tables[0] == nil || tables[2] == nil {
			t.Fatalf("workers=%d: a healthy experiment lost its table", workers)
		}
		if got := renderAll(t, []*Table{tables[0], tables[2]}); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: healthy tables differ from a sweep without failures", workers)
		}
		if err == nil {
			t.Fatalf("workers=%d: no error for two failed experiments", workers)
		}
		msg := err.Error()
		if i, j := strings.Index(msg, "zz-panic"), strings.Index(msg, "zz-body-panic"); i < 0 || j < i {
			t.Errorf("workers=%d: error does not name both failures in ids order:\n%s", workers, msg)
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: err = %v, want a *CellError in the chain", workers, err)
		}
		if ce.ExpID != "zz-panic" || ce.Options.Seed != panicSeed {
			t.Errorf("workers=%d: first CellError = %+v, want zz-panic's cell", workers, ce)
		}
		report := FormatFailures(err)
		if !strings.HasPrefix(report, "2 experiment(s) failed:") ||
			!strings.Contains(report, "panicEngine") || !strings.Contains(report, "body boom") {
			t.Errorf("workers=%d: FormatFailures output missing a failure or its stack:\n%s", workers, report)
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
