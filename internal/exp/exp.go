// Package exp regenerates every table and figure of the paper's evaluation
// as text tables: one registered experiment per artifact (fig1, fig4, fig5,
// fig7, fig8, fig10a/b/c, fig12–fig17, tab4). cmd/dlrmbench is the CLI
// front end; EXPERIMENTS.md records paper-vs-measured for each.
package exp

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/platform"
)

// Config scales and seeds an experiment run. The zero value is completed
// by defaults: paper batch size 64, model scale-down 8 (quick mode; use
// Scale=1 to run at paper scale), 1 measured batch per core.
type Config struct {
	// Scale divides model dimensions (see dlrm.Config.Scaled). 1 = paper
	// scale; the default 8 keeps the full suite in minutes.
	Scale int
	// BatchSize per batch (default 64, the paper's setting).
	BatchSize int
	// Batches measured per core (default 1; the paper averages 120).
	Batches int
	// Cores overrides the "multi-core" core count (0 = all platform
	// cores); a platform with fewer cores than this uses all of its own.
	// Values above every platform's count are rejected. Single-core
	// panels always use 1.
	Cores int
	// Seed drives everything.
	Seed uint64
	// BandwidthIterations for the DRAM fixed point (default 2).
	BandwidthIterations int
}

// Validate reports every violation in the sweep config at once
// (errors.Join), under withDefaults' zero-means-default convention:
// zero fields are fine, values no default can repair are not.
func (c Config) Validate() error {
	var errs []error
	if c.Scale < 0 {
		errs = append(errs, fmt.Errorf("exp: negative scale %d", c.Scale))
	}
	if c.BatchSize < 0 {
		errs = append(errs, fmt.Errorf("exp: negative batch size %d", c.BatchSize))
	}
	if c.Batches < 0 {
		errs = append(errs, fmt.Errorf("exp: negative batch count %d", c.Batches))
	}
	if c.Cores < 0 {
		errs = append(errs, fmt.Errorf("exp: negative core count %d", c.Cores))
	}
	most := 0 // the largest platform's core count
	for _, cpu := range platform.All() {
		most = max(most, cpu.Cores)
	}
	if c.Cores > most {
		errs = append(errs, fmt.Errorf("exp: core count %d above the largest platform's %d", c.Cores, most))
	}
	if c.BandwidthIterations < 0 {
		errs = append(errs, fmt.Errorf("exp: negative bandwidth iterations %d", c.BandwidthIterations))
	}
	return errors.Join(errs...)
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 8
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.Batches == 0 {
		c.Batches = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BandwidthIterations == 0 {
		c.BandwidthIterations = 2
	}
	return c
}

// multiCores resolves the multi-core core count for a platform.
func (c Config) multiCores(cpu platform.CPU) int {
	if c.Cores > 0 && c.Cores <= cpu.Cores {
		return c.Cores
	}
	return cpu.Cores
}

// model returns the (possibly scaled) model config.
func (c Config) model(base dlrm.Config) dlrm.Config { return base.Scaled(c.Scale) }

// Context carries the config plus a memo of engine runs, one per resolved
// cell (core.Options.Resolve), since experiments share design points.
//
// A Context is safe for concurrent use: concurrent Run calls for the same
// design point share one computation (the losers wait on the winner's
// memo cell rather than re-simulating), and when the context is armed
// with a worker pool (WithParallelism, done by RunAll) each computation
// occupies one pool slot, bounding total engine concurrency.
type Context struct {
	Cfg Config

	mu   sync.Mutex
	memo map[string]*memoCell

	// ctx cancels in-flight and queued design points; sem, when non-nil,
	// bounds how many engine simulations run at once. Both are configured
	// by WithParallelism; the zero state is sequential and uncancellable,
	// exactly the pre-runner behavior.
	ctx context.Context
	sem chan struct{}

	// cp, when non-nil, is the on-disk cell store (WithCheckpoint):
	// completed cells are persisted as they finish and consulted before
	// simulating, so an interrupted sweep resumes where it stopped.
	cp *Checkpoint
}

// memoCell is the memo entry for one design point. once ensures a single
// computation even when several goroutines request the cell together.
type memoCell struct {
	once sync.Once
	rep  core.Report
	err  error
}

// NewContext returns a run context with defaults applied.
func NewContext(cfg Config) *Context {
	return &Context{
		Cfg:  cfg.withDefaults(),
		memo: map[string]*memoCell{},
		ctx:  context.Background(),
	}
}

// complete fills unset option fields from the run config.
func (x *Context) complete(opts core.Options) core.Options {
	if opts.BatchSize == 0 {
		opts.BatchSize = x.Cfg.BatchSize
	}
	if opts.Batches == 0 {
		opts.Batches = x.Cfg.Batches
	}
	if opts.Seed == 0 {
		opts.Seed = x.Cfg.Seed
	}
	if opts.BandwidthIterations == 0 {
		opts.BandwidthIterations = x.Cfg.BandwidthIterations
	}
	return opts
}

// cellLabel is a short human-readable name for a cell, for error
// messages and the checkpoint manifest. It names only the fields people
// tell cells apart by, so it is not a key: Run memoizes on
// canonicalOptions.
func cellLabel(opts core.Options) string {
	return fmt.Sprintf("%s|%v|%s|%v|%v|%d|%d|%d|%d|%d|%v|%v|%d",
		opts.Model.Name, opts.Model.EmbDType, opts.CPU.Name, opts.Hotness, opts.Scheme,
		opts.BatchSize, opts.Batches, opts.Cores, opts.Sockets, opts.ActiveCores,
		opts.Prefetch, opts.EmbeddingOnly, opts.Seed)
}

// Run executes (or recalls) one engine design point, keyed on the
// completed, resolved cell's canonical encoding (canonicalOptions), the
// bytes the checkpoint hashes; an invalid cell fails first. With a
// checkpoint armed, a stored cell is returned without simulating and a
// simulated one is committed before Run returns; an engine panic becomes
// a *CellError.
func (x *Context) Run(opts core.Options) (core.Report, error) {
	opts, err := x.complete(opts).Resolve()
	if err != nil {
		return core.Report{}, err
	}
	key, err := canonicalOptions(opts)
	if err != nil {
		return core.Report{}, err
	}
	x.mu.Lock()
	cell, ok := x.memo[string(key)]
	if !ok {
		cell = &memoCell{}
		x.memo[string(key)] = cell
	}
	x.mu.Unlock()
	cell.once.Do(func() {
		if x.cp != nil {
			if rep, ok := x.cp.Get(opts); ok {
				cell.rep = rep
				return
			}
		}
		release := x.acquire()
		defer release()
		cell.rep, cell.err = runCell(x.ctx, opts)
		if x.cp != nil && cell.err == nil {
			x.cp.Put(opts, cell.rep)
		}
	})
	return cell.rep, cell.err
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a caption line below the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// RenderCSV writes the table as RFC-4180 CSV (headers first; notes are
// emitted as trailing comment rows).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"experiment"}, t.Headers...)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(append([]string{t.ID}, row...)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{t.ID, "# " + n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(x *Context) (*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs lists registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// helpers shared by the figure files

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func spd(v float64) string { return fmt.Sprintf("%.2fx", v) }
