package main

import (
	"strings"
	"testing"
)

// goodOptions mirrors the flag defaults.
func goodOptions() options {
	return options{hotness: "medium", rows: 1_000_000, tables: 4, batch: 64, lookups: 120, batches: 8, seed: 1, top: 10}
}

// TestValidateBadInputs is the bad-input table: each row must be
// rejected with a message naming the offending flag.
func TestValidateBadInputs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		set  []string // flags "explicitly given" beyond the mutation
		want string
	}{
		{"unknown hotness", func(o *options) { o.hotness = "scorching" }, nil, "unknown hotness"},
		{"negative top", func(o *options) { o.top = -1 }, nil, "-top -1"},
		{"negative top with -in", func(o *options) { o.in = "t.bin"; o.top = -3 }, nil, "-top -3"},
		{"stats with -in", func(o *options) { o.in = "t.bin"; o.stats = true }, []string{"stats"}, "-stats applies to a generated trace"},
		{"output with -in", func(o *options) { o.in = "t.bin"; o.out = "u.bin" }, []string{"o"}, "-o applies to a generated trace"},
		{"hotness with -in", func(o *options) { o.in = "t.bin"; o.hotness = "low" }, []string{"hotness"}, "-hotness applies"},
		{"rows with -in", func(o *options) { o.in = "t.bin" }, []string{"rows"}, "-rows applies"},
		{"tables with -in", func(o *options) { o.in = "t.bin" }, []string{"tables"}, "-tables applies"},
		{"batch with -in", func(o *options) { o.in = "t.bin" }, []string{"batch"}, "-batch applies"},
		{"lookups with -in", func(o *options) { o.in = "t.bin" }, []string{"lookups"}, "-lookups applies"},
		{"batches with -in", func(o *options) { o.in = "t.bin" }, []string{"batches"}, "-batches applies"},
		{"seed with -in", func(o *options) { o.in = "t.bin" }, []string{"seed"}, "-seed applies"},
		{"zero rows", func(o *options) { o.rows = 0 }, []string{"rows"}, "trace: non-positive dimension"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodOptions()
			tc.mut(&o)
			set := map[string]bool{}
			for _, s := range tc.set {
				set[s] = true
			}
			_, err := o.validate(func(name string) bool { return set[name] })
			if err == nil {
				t.Fatalf("accepted bad flags %+v (set %v)", o, tc.set)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateGoodInputs: the defaults, each generation mode, and a bare
// -in pass.
func TestValidateGoodInputs(t *testing.T) {
	for name, tc := range map[string]struct {
		mut func(*options)
		set []string
	}{
		"defaults":    {func(*options) {}, nil},
		"write":       {func(o *options) { o.hotness = "low"; o.out = "t.bin" }, []string{"hotness", "o"}},
		"stats":       {func(o *options) { o.stats = true; o.top = 0 }, []string{"stats", "top"}},
		"in":          {func(o *options) { o.in = "t.bin" }, []string{"in"}},
		"in with top": {func(o *options) { o.in = "t.bin" }, []string{"in", "top"}},
	} {
		o := goodOptions()
		tc.mut(&o)
		set := map[string]bool{}
		for _, s := range tc.set {
			set[s] = true
		}
		if _, err := o.validate(func(name string) bool { return set[name] }); err != nil {
			t.Errorf("%s: rejected good flags: %v", name, err)
		}
	}
}
