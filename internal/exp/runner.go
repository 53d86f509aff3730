package exp

// The deterministic parallel runner. The evaluation grid is embarrassingly
// parallel twice over — experiments are independent of each other, and the
// design-point cells inside one experiment are independent engine
// invocations — so the runner fans both levels out over a single bounded
// worker pool. Determinism is preserved by construction:
//
//   - every cell is a pure function of its core.Options (all randomness is
//     derived from Options.Seed by stateless splitmix64 mixing — there is
//     no shared generator state between cells, see stats.SplitSeed), and
//   - results are collected index-ordered (RunMany returns reports aligned
//     with its cell slice, RunAll returns tables aligned with its ID
//     slice), so assembly order never depends on completion order.
//
// Consequently the rendered tables are byte-identical for every worker
// count, which runner_test.go enforces against the whole registry.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"dlrmsim/internal/core"
)

// WithParallelism arms the context with a cancellation context and a
// worker pool of the given size (<= 0 means GOMAXPROCS; 1 keeps execution
// effectively sequential while still honoring cancellation). It returns x
// for chaining. Call it before sharing the context between goroutines,
// not concurrently with Run.
func (x *Context) WithParallelism(ctx context.Context, workers int) *Context {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	x.ctx = ctx
	x.sem = nil
	if workers > 1 {
		x.sem = make(chan struct{}, workers)
	}
	return x
}

// acquire claims one worker-pool slot (a no-op without a pool) and
// returns its release. Cancellation unblocks waiters; the subsequent
// engine call observes the dead context and returns its error.
func (x *Context) acquire() func() {
	if x.sem == nil {
		return func() {}
	}
	select {
	case x.sem <- struct{}{}:
		return func() { <-x.sem }
	case <-x.ctx.Done():
		return func() {}
	}
}

// RunMany executes a batch of independent design points and returns the
// reports index-aligned with cells. With a worker pool armed the cells
// run concurrently (bounded by the pool, deduplicated by the memo); the
// reports and any error are identical to running the cells sequentially
// in order, because each cell is deterministic in its options.
func (x *Context) RunMany(cells []core.Options) ([]core.Report, error) {
	reps := make([]core.Report, len(cells))
	if x.sem == nil || len(cells) < 2 {
		for i, c := range cells {
			rep, err := x.Run(c)
			if err != nil {
				return nil, withCellIndex(err, i)
			}
			reps[i] = rep
		}
		return reps, nil
	}
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c core.Options) {
			defer wg.Done()
			reps[i], errs[i] = x.Run(c)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, withCellIndex(err, i)
		}
	}
	return reps, nil
}

// RunAll executes the named experiments on x over a pool of workers and
// returns their tables index-aligned with ids. workers <= 0 uses
// GOMAXPROCS; workers == 1 runs the experiments strictly sequentially on
// the calling goroutine — the pre-runner path. Unknown IDs fail before
// anything runs. Otherwise every experiment runs to completion: a failed
// one leaves nil at its index, and the error joins one error per failed
// experiment, in ids order, each prefixed with its ID. A panic inside any
// cell or experiment body surfaces as a *CellError, stack included, in
// its experiment's chain rather than crashing the process. Cancelling ctx
// aborts the sweep: the experiments still running fail with ctx.Err().
func RunAll(ctx context.Context, x *Context, ids []string, workers int) ([]*Table, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, err := Get(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	x.WithParallelism(ctx, workers)
	tables := make([]*Table, len(exps))
	errs := make([]error, len(exps))
	if workers == 1 {
		for i, e := range exps {
			tables[i], errs[i] = safeRun(e, x)
		}
	} else {
		var wg sync.WaitGroup
		for i, e := range exps {
			wg.Add(1)
			go func(i int, e Experiment) {
				defer wg.Done()
				tables[i], errs[i] = safeRun(e, x)
			}(i, e)
		}
		wg.Wait()
	}
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", exps[i].ID, err))
			tables[i] = nil
		}
	}
	return tables, errors.Join(failed...)
}
