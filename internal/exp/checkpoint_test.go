package exp

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dlrmsim/internal/cluster"
	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

// ckptIDs is the sweep slice the resume tests run: small enough to finish
// in seconds, large enough to span several distinct design-point cells.
var ckptIDs = []string{"fig1", "fig10b", "fig12", "ext4", "clu6", "clu7", "clu9"}

// renderAll concatenates text+CSV renderings of a table slice.
func renderAll(t *testing.T, tables []*Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if err := tbl.RenderCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func openTestCheckpoint(t *testing.T, dir string) *Checkpoint {
	t.Helper()
	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cp.Close() })
	return cp
}

// TestCheckpointRoundTrip: Put then Get returns the exact report, and the
// entry file plus a manifest line land on disk.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cp := openTestCheckpoint(t, dir)
	x := tinyContext()
	opts := x.complete(core.Options{Model: x.Cfg.model(dlrm.RM2Small()), Hotness: trace.LowHot, Cores: 2})
	rep, err := x.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cp.Get(opts); ok {
		t.Fatal("Get hit on an empty store")
	}
	cp.Put(opts, rep)
	got, ok := cp.Get(opts)
	if !ok {
		t.Fatal("Get missed a just-committed cell")
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("report did not round-trip:\nput %+v\ngot %+v", rep, got)
	}
	key, err := canonicalOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	hash := checksum(key)
	if _, err := os.Stat(filepath.Join(dir, hash+".cell")); err != nil {
		t.Errorf("entry file missing: %v", err)
	}
	mf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || !bytes.Contains(mf, []byte(hash)) {
		t.Errorf("manifest missing the entry hash (err %v)", err)
	}
	s := cp.Stats()
	if s.Writes != 1 || s.Hits != 1 || s.Misses != 1 || s.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 write, 1 hit, 1 miss", s)
	}
}

// TestCheckpointResumeByteIdentical is the tentpole's acceptance test: a
// sweep killed mid-run and resumed from its checkpoint renders tables
// byte-identical to an uninterrupted run, at workers 1 and 8.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	clean, err := RunAll(context.Background(), tinyContext(), ckptIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, clean)

	for _, workers := range []int{1, 8} {
		dir := t.TempDir()

		// Phase 1: run with a checkpoint armed and kill the sweep once at
		// least two cells have committed. Fast machines may finish first —
		// that only makes the resume trivially complete, never wrong.
		cp := openTestCheckpoint(t, dir)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			for cp.Stats().Writes < 2 {
				select {
				case <-ctx.Done():
					return
				default:
					time.Sleep(100 * time.Microsecond)
				}
			}
			cancel()
		}()
		_, err := RunAll(ctx, tinyContext().WithCheckpoint(cp), ckptIDs, workers)
		cancel()
		<-done
		partial := cp.Stats().Writes
		if err == nil && partial < 2 {
			t.Fatalf("workers=%d: uninterrupted run wrote %d cells", workers, partial)
		}
		cp.Close()

		// Phase 2: resume with a fresh context and the same directory.
		cp2 := openTestCheckpoint(t, dir)
		tables, err := RunAll(context.Background(), tinyContext().WithCheckpoint(cp2), ckptIDs, workers)
		if err != nil {
			t.Fatalf("workers=%d: resume failed: %v", workers, err)
		}
		if got := renderAll(t, tables); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: resumed tables differ from uninterrupted run\n--- want ---\n%s--- got ---\n%s",
				workers, want, got)
		}
		if s := cp2.Stats(); partial > 0 && s.Hits == 0 {
			t.Errorf("workers=%d: resume re-simulated everything (stats %+v) despite %d stored cells",
				workers, s, partial)
		}
	}
}

// TestCheckpointResumeParallelBackendIndependent: checkpoint cell keys
// hash the experiment's design point, not the execution strategy — so a
// sweep killed mid-run under the sequential backend must resume under
// the parallel backend (the -resume + -shard-workers path) serving the
// stored cells as hits and rendering bytes identical to an
// uninterrupted sequential run. This pins both halves of the
// contract: keys are backend-independent, and so are the recomputed
// cells the resumed run fills in.
func TestCheckpointResumeParallelBackendIndependent(t *testing.T) {
	clean, err := RunAll(context.Background(), tinyContext(), ckptIDs, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, clean)

	dir := t.TempDir()

	// Phase 1: sequential run, killed once at least two cells committed.
	cp := openTestCheckpoint(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for cp.Stats().Writes < 2 {
			select {
			case <-ctx.Done():
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		cancel()
	}()
	_, err = RunAll(ctx, tinyContext().WithCheckpoint(cp), ckptIDs, 1)
	cancel()
	<-done
	partial := cp.Stats().Writes
	if err == nil && partial < 2 {
		t.Fatalf("uninterrupted run wrote %d cells", partial)
	}
	cp.Close()

	// Phase 2: resume the same directory under the parallel backend.
	restore := cluster.SetExecBackend(cluster.Parallel(4))
	defer restore()
	cp2 := openTestCheckpoint(t, dir)
	tables, err := RunAll(context.Background(), tinyContext().WithCheckpoint(cp2), ckptIDs, 8)
	if err != nil {
		t.Fatalf("parallel resume failed: %v", err)
	}
	if got := renderAll(t, tables); !bytes.Equal(got, want) {
		t.Errorf("parallel-resumed tables differ from sequential run\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if s := cp2.Stats(); partial > 0 && s.Hits == 0 {
		t.Errorf("parallel resume re-simulated everything (stats %+v) despite %d sequential cells", s, partial)
	}
}

// TestCheckpointCorruptEntryRecomputed: a truncated entry is detected,
// treated as a miss, recomputed, and overwritten — never an error.
func TestCheckpointCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	x := tinyContext().WithCheckpoint(openTestCheckpoint(t, dir))
	// The store keys on the resolved cell, the options Run commits.
	opts, err := x.complete(core.Options{Model: x.Cfg.model(dlrm.RM2Small()), Hotness: trace.LowHot, Cores: 2}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := x.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	key, err := canonicalOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	hash := checksum(key)
	path := filepath.Join(dir, hash+".cell")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	cp := openTestCheckpoint(t, dir)
	y := tinyContext().WithCheckpoint(cp)
	got, err := y.Run(opts)
	if err != nil {
		t.Fatalf("corrupt entry surfaced as an error: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recomputed report differs:\nwant %+v\ngot  %+v", want, got)
	}
	s := cp.Stats()
	if s.Corrupt != 1 || s.Writes != 1 {
		t.Errorf("stats = %+v, want 1 corrupt miss and 1 rewrite", s)
	}
	// The rewritten entry must verify again.
	if _, ok := cp.Get(opts); !ok {
		t.Error("rewritten entry still fails verification")
	}
}

// TestCellWithoutKeyFails: a cell whose options do not encode (a NaN
// float) fails with an error instead of panicking, and the store
// neither serves nor commits it.
func TestCellWithoutKeyFails(t *testing.T) {
	cp := openTestCheckpoint(t, t.TempDir())
	x := tinyContext().WithCheckpoint(cp)
	cpu := platform.CascadeLake()
	cpu.FrequencyGHz = math.NaN()
	opts := x.complete(core.Options{Model: x.Cfg.model(dlrm.RM2Small()), CPU: cpu, Cores: 2})
	if _, err := x.Run(opts); err == nil || !strings.Contains(err.Error(), "has no key") {
		t.Errorf("Run err = %v, want the missing key", err)
	}
	cp.Put(opts, core.Report{})
	if _, ok := cp.Get(opts); ok {
		t.Error("Get served a cell without a key")
	}
	if s := cp.Stats(); s.Writes != 0 || s.WriteErrors != 1 {
		t.Errorf("stats = %+v, want the commit counted as a write error", s)
	}
}

// TestCheckpointWriteOnly: recompute mode (-resume=false) always misses on
// read but keeps committing.
func TestCheckpointWriteOnly(t *testing.T) {
	dir := t.TempDir()
	cp := openTestCheckpoint(t, dir)
	x := tinyContext()
	opts := x.complete(core.Options{Model: x.Cfg.model(dlrm.RM2Small()), Hotness: trace.LowHot, Cores: 2})
	rep, err := x.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	cp.Put(opts, rep)
	cp.SetWriteOnly(true)
	if _, ok := cp.Get(opts); ok {
		t.Error("write-only store served a hit")
	}
	cp.SetWriteOnly(false)
	if _, ok := cp.Get(opts); !ok {
		t.Error("entry vanished after write-only round")
	}
}
