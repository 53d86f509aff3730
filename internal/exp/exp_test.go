package exp

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

// tinyContext returns a context small enough that every experiment runs in
// a few seconds: scale-down 20, 2 cores, batch 8.
func tinyContext() *Context {
	return NewContext(Config{
		Scale:               20,
		BatchSize:           8,
		Batches:             1,
		Cores:               2,
		Seed:                1,
		BandwidthIterations: 2,
	})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig4", "fig5", "fig7", "fig8",
		"fig10a", "fig10b", "fig10c",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "tab4",
		"ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8",
		"clu1", "clu2", "clu3", "clu4", "clu5", "clu6", "clu7", "clu8", "clu9",
		"het1", "het2",
	}
	ids := IDs()
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("fig99"); err == nil {
		t.Fatal("accepted unknown experiment")
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	x := tinyContext()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := e.Run(x)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Headers) && tbl.ID != "fig17" {
					t.Fatalf("row width %d != header width %d: %v", len(row), len(tbl.Headers), row)
				}
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), tbl.ID) {
				t.Fatal("render missing ID")
			}
		})
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Headers: []string{"a", "long-header"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("n=%d", 5)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: t ==", "long-header", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestContextMemoization(t *testing.T) {
	x := tinyContext()
	e, err := Get("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(x); err != nil {
		t.Fatal(err)
	}
	n := len(x.memo)
	if n == 0 {
		t.Fatal("no memo entries after a run")
	}
	if _, err := e.Run(x); err != nil {
		t.Fatal(err)
	}
	if len(x.memo) != n {
		t.Fatalf("second run added memo entries: %d → %d", n, len(x.memo))
	}
}

// TestContextKeysEveryOption: cells that differ in any option — here
// the DRAM fixed point's iteration bound, a CPU field other than Name,
// and a model field other than Name and EmbDType — are distinct design
// points. Each must read what a fresh context computes for it, not the
// report of a cell that differs only in a field the memo key left out.
func TestContextKeysEveryOption(t *testing.T) {
	x := tinyContext()
	base := core.Options{
		Model: x.Cfg.model(dlrm.RM2Small()), CPU: platform.CascadeLake(),
		Hotness: trace.MediumHot, Cores: 2,
	}
	iters := base
	iters.BandwidthIterations = 6
	cpu := base
	cpu.CPU.Mem.DRAM.BaseLatencyCyc *= 2
	model := base
	model.Model.LookupsPerSample *= 2
	for _, tc := range []struct {
		name string
		opts core.Options
	}{{"base", base}, {"bandwidth iterations", iters}, {"cpu", cpu}, {"model", model}} {
		got, err := x.Run(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tinyContext().Run(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: shared context returned batch latency %.2f cycles, a fresh one %.2f",
				tc.name, got.BatchLatencyCycles, want.BatchLatencyCycles)
		}
	}
}

// TestContextKeepsPlacementsApart: ext4's pinned, interleaved and spread
// cells differ only in Sockets and ActiveCores, so one Context must key,
// run and return them as three distinct design points.
func TestContextKeepsPlacementsApart(t *testing.T) {
	x := tinyContext()
	base := core.Options{
		Model: x.Cfg.model(dlrm.RM2Small()), Hotness: trace.MediumHot,
		Cores: 2, EmbeddingOnly: true,
	}
	var cells []core.Options
	for _, pl := range []struct{ sockets, active int }{{1, 2}, {2, 2}, {2, 4}} {
		o := base
		o.Sockets, o.ActiveCores = pl.sockets, pl.active
		cells = append(cells, o)
	}
	reps, err := x.RunMany(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.memo) != len(cells) {
		t.Errorf("%d memo entries for %d placements", len(x.memo), len(cells))
	}
	seen := map[string]int{}
	for i, rep := range reps {
		key := fmt.Sprintf("%+v", rep)
		if j, dup := seen[key]; dup {
			t.Errorf("placements %d and %d returned the same report:\n%s", j, i, key)
		}
		seen[key] = i
	}
}

// countEngine wraps the engine, until the test ends, in a counter of
// its calls per resolved cell. The count map is keyed by the cell's
// checksum and label, so a cell simulated twice names itself.
func countEngine(t *testing.T) func() map[string]int {
	t.Helper()
	var mu sync.Mutex
	calls := map[string]int{}
	t.Cleanup(func() { runEngine = core.RunContext })
	runEngine = func(ctx context.Context, opts core.Options) (core.Report, error) {
		r, err := opts.Resolve()
		if err != nil {
			return core.Report{}, err
		}
		key, err := canonicalOptions(r)
		if err != nil {
			return core.Report{}, err
		}
		mu.Lock()
		calls[checksum(key)[:12]+" "+cellLabel(r)]++
		mu.Unlock()
		return core.RunContext(ctx, opts)
	}
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(calls)
	}
}

// sumCalls is the number of engine calls in a countEngine map.
func sumCalls(calls map[string]int) int {
	n := 0
	for _, c := range calls {
		n += c
	}
	return n
}

// TestOneSimulationPerDesignPoint: two spellings of one design point —
// a field left zero, and the same field set to the value Resolve fills —
// run concurrently through one Context make one engine call and return
// equal reports. With a checkpoint armed, a fresh Context given the
// second spelling reads the entry the first one wrote.
func TestOneSimulationPerDesignPoint(t *testing.T) {
	csl := platform.CascadeLake()
	twoCore := csl // a two-core Cascade Lake keeps the all-cores cell small
	twoCore.Cores = 2
	base := core.Options{
		Model: dlrm.RM2Small().Scaled(20), Hotness: trace.MediumHot,
		Cores: 2, EmbeddingOnly: true,
	}
	pair := func(a, b func(*core.Options)) [2]core.Options {
		x, y := base, base
		a(&x)
		b(&y)
		return [2]core.Options{x, y}
	}
	none := func(*core.Options) {}
	swpf := func(o *core.Options) { o.Scheme = core.SWPF }
	for name, cells := range map[string][2]core.Options{
		"cpu":          pair(none, func(o *core.Options) { o.CPU = csl }),
		"cores":        pair(func(o *core.Options) { o.CPU, o.Cores = twoCore, 0 }, func(o *core.Options) { o.CPU = twoCore }),
		"active cores": pair(none, func(o *core.Options) { o.ActiveCores = 2 }),
		"sockets":      pair(none, func(o *core.Options) { o.Sockets = 1 }),
		"prefetch": pair(swpf, func(o *core.Options) {
			swpf(o)
			o.Prefetch = embedding.PrefetchConfig{Dist: csl.TunedPFDist, Blocks: csl.TunedPFBlocks}
		}),
	} {
		calls := countEngine(t)
		dir := t.TempDir()
		cp := openTestCheckpoint(t, dir)
		x := tinyContext().WithParallelism(context.Background(), 4).WithCheckpoint(cp)
		reps, err := x.RunMany(cells[:])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := sumCalls(calls()); n != 1 {
			t.Errorf("%s: %d engine calls for one design point: %v", name, n, calls())
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Errorf("%s: the two spellings returned different reports", name)
		}
		if s := cp.Stats(); s.Writes != 1 {
			t.Errorf("%s: first context's store stats = %+v, want 1 write", name, s)
		}
		cp2 := openTestCheckpoint(t, dir)
		rep, err := tinyContext().WithCheckpoint(cp2).Run(cells[1])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := cp2.Stats(); s.Hits != 1 || s.Writes != 0 {
			t.Errorf("%s: second spelling's store stats = %+v, want 1 hit and 0 writes", name, s)
		}
		if !reflect.DeepEqual(rep, reps[0]) {
			t.Errorf("%s: the resumed report differs from the simulated one", name)
		}
	}
}

// TestRenderSimulatesEachCellOnce: over a whole registry render, the
// engine runs every resolved cell once, whichever spelling of a design
// point each experiment uses.
func TestRenderSimulatesEachCellOnce(t *testing.T) {
	calls := countEngine(t)
	if _, err := RunAll(context.Background(), tinyContext(), IDs(), 4); err != nil {
		t.Fatal(err)
	}
	got := calls()
	for cell, n := range got {
		if n > 1 {
			t.Errorf("cell %s simulated %d times", cell, n)
		}
	}
	t.Logf("%d engine calls over %d resolved cells", sumCalls(got), len(got))
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 8 || c.BatchSize != 64 || c.Batches != 1 || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
}

// TestConfigValidate pins what Validate rejects: each negative field, and
// a core count above every platform's (64, Zen3's), which multiCores would
// otherwise silently clamp to each platform's own count.
func TestConfigValidate(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg  Config
		want string // "" means valid
	}{
		"zero value":                    {Config{}, ""},
		"largest platform's cores":      {Config{Cores: 64}, ""},
		"negative scale":                {Config{Scale: -1}, "negative scale"},
		"negative batch size":           {Config{BatchSize: -8}, "negative batch size"},
		"negative batches":              {Config{Batches: -1}, "negative batch count"},
		"negative cores":                {Config{Cores: -2}, "negative core count"},
		"negative bandwidth iterations": {Config{BandwidthIterations: -3}, "negative bandwidth iterations"},
		"cores above every platform":    {Config{Cores: 65}, "above the largest platform's 64"},
		"cores far above":               {Config{Cores: 1000}, "core count 1000"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}
