package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
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
