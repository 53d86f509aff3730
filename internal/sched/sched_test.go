package sched

import (
	"sync"
	"sync/atomic"
	"testing"

	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/trace"
)

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(PerCoreQueue, 0); err == nil {
		t.Fatal("accepted zero groups")
	}
	if _, err := NewPool(Policy(9), 2); err == nil {
		t.Fatal("accepted invalid policy")
	}
}

func TestPoolRunsTasks(t *testing.T) {
	p, err := NewPool(PerCoreQueue, 2)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.Submit(i%2, func() {
			atomic.AddInt64(&n, 1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	p.Close()
	if n != 100 {
		t.Fatalf("ran %d tasks", n)
	}
}

func TestPerCoreQueueNoStealing(t *testing.T) {
	p, err := NewPool(PerCoreQueue, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Submit work only to group 1.
	for i := 0; i < 50; i++ {
		wg.Add(1)
		if err := p.Submit(1, func() { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	p.Close()
	counts := p.ExecCounts()
	if counts[1] != 50 {
		t.Fatalf("group 1 ran %d tasks, want 50", counts[1])
	}
	for g, c := range counts {
		if g != 1 && c != 0 {
			t.Fatalf("group %d stole %d tasks", g, c)
		}
	}
}

// TestExecCountsSeeSignalledTasks: a task that signals its own completion
// must already be counted when the signal is observed, so a caller that
// waits on the task and then reads ExecCounts sees it. Counting after the
// task returns let the read overtake the increment.
func TestExecCountsSeeSignalledTasks(t *testing.T) {
	p, err := NewPool(PerCoreQueue, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := int64(1); i <= 2000; i++ {
		var wg sync.WaitGroup
		wg.Add(1)
		if err := p.Submit(0, wg.Done); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if got := p.ExecCounts()[0]; got != i {
			t.Fatalf("after %d signalled tasks ExecCounts reports %d", i, got)
		}
	}
}

func TestGlobalQueueMigratesWork(t *testing.T) {
	p, err := NewPool(GlobalQueue, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	// Eight tasks "submitted to group 0" that each hold their worker
	// until all eight are running: with 4 groups × 2 workers, this can
	// only complete if the global queue spreads work across groups.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		if err := p.Submit(0, func() {
			started <- struct{}{}
			<-release
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		<-started
	}
	close(release)
	wg.Wait()
	p.Close()
	ran := 0
	for _, c := range p.ExecCounts() {
		if c > 0 {
			ran++
		}
	}
	if ran != 4 {
		t.Fatalf("global queue used %d group(s), want all 4", ran)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	p, err := NewPool(PerCoreQueue, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.Submit(0, func() {}); err == nil {
		t.Fatal("accepted submit after close")
	}
}

func TestSubmitValidation(t *testing.T) {
	p, err := NewPool(PerCoreQueue, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Submit(5, func() {}); err == nil {
		t.Fatal("accepted out-of-range group")
	}
	if err := p.Submit(0, nil); err == nil {
		t.Fatal("accepted nil task")
	}
}

func TestPolicyStrings(t *testing.T) {
	if GlobalQueue.String() == "invalid" || PerCoreQueue.String() == "invalid" {
		t.Fatal("policies unnamed")
	}
	if Policy(7).String() != "invalid" {
		t.Fatal("bad policy not flagged")
	}
	if Sequential.String() == "invalid" || ModelParallel.String() == "invalid" {
		t.Fatal("modes unnamed")
	}
	if Mode(7).String() != "invalid" {
		t.Fatal("bad mode not flagged")
	}
}

// serverFixture builds a small model + dataset + pool-backed server.
func serverFixture(t *testing.T, mode Mode) (*Server, *dlrm.Model, *trace.Dataset, *Pool) {
	t.Helper()
	cfg := dlrm.RM2Small().Scaled(20)
	model, err := dlrm.New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := trace.NewDataset(trace.Config{
		Hotness: trace.MediumHot, Rows: cfg.RowsPerTable, Tables: cfg.Tables,
		BatchSize: 4, LookupsPerSample: cfg.LookupsPerSample, Batches: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(PerCoreQueue, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(pool, model, mode)
	if err != nil {
		t.Fatal(err)
	}
	return srv, model, ds, pool
}

func TestServerModelParallelMatchesDirectInference(t *testing.T) {
	srv, model, ds, pool := serverFixture(t, ModelParallel)
	defer pool.Close()
	dense := model.DenseBatch(4, 9)
	src := func(tbl int) trace.TableBatch { return ds.Batch(0, tbl) }
	want, err := model.Infer(dense, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.InferBatch(1, dense, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: MP-HT %g != direct %g", i, got[i], want[i])
		}
	}
	// All three tasks ran on group 1.
	counts := pool.ExecCounts()
	if counts[1] != 3 {
		t.Fatalf("group 1 ran %d tasks, want 3 (emb, bottom, join)", counts[1])
	}
}

func TestServerSequentialMatchesDirectInference(t *testing.T) {
	srv, model, ds, pool := serverFixture(t, Sequential)
	defer pool.Close()
	dense := model.DenseBatch(4, 9)
	src := func(tbl int) trace.TableBatch { return ds.Batch(0, tbl) }
	want, _ := model.Infer(dense, src)
	got, err := srv.InferBatch(0, dense, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestServerInferAllConcurrent(t *testing.T) {
	srv, model, ds, pool := serverFixture(t, ModelParallel)
	defer pool.Close()
	const batches = 6
	denses := make([][][]float32, batches)
	srcs := make([]embedding.BatchSource, batches)
	for b := 0; b < batches; b++ {
		b := b
		denses[b] = model.DenseBatch(4, uint64(b))
		srcs[b] = func(tbl int) trace.TableBatch { return ds.Batch(b, tbl) }
	}
	got, err := srv.InferAll(denses, srcs)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < batches; b++ {
		want, err := model.Infer(denses[b], srcs[b])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[b][i] != want[i] {
				t.Fatalf("batch %d sample %d: %g != %g", b, i, got[b][i], want[i])
			}
		}
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil, Sequential); err == nil {
		t.Fatal("accepted nil pool/model")
	}
	srv, model, _, pool := serverFixture(t, ModelParallel)
	defer pool.Close()
	_ = model
	if _, err := srv.InferBatch(0, nil, nil); err == nil {
		t.Fatal("accepted empty batch")
	}
	if _, err := srv.InferAll(make([][][]float32, 2), nil); err == nil {
		t.Fatal("accepted mismatched InferAll inputs")
	}
}

func TestServerErrorPropagation(t *testing.T) {
	srv, model, _, pool := serverFixture(t, ModelParallel)
	defer pool.Close()
	dense := model.DenseBatch(4, 1)
	// Sparse source whose batch size mismatches dense.
	bad := func(tbl int) trace.TableBatch {
		return trace.TableBatch{Offsets: []int32{0, 1}, Indices: []int32{0}}
	}
	if _, err := srv.InferBatch(0, dense, bad); err == nil {
		t.Fatal("embedding error not propagated")
	}
}
