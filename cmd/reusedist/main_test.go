package main

import (
	"strings"
	"testing"
)

// goodOptions mirrors the flag defaults.
func goodOptions() options {
	return options{hotness: "medium", rows: 125_000, tables: 8, batch: 64, lookups: 120, cores: 24, dim: 128, seed: 1}
}

// TestValidateBadInputs is the bad-input table: each row must be
// rejected with a message naming every offending flag.
func TestValidateBadInputs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want []string
	}{
		{"zero cores", func(o *options) { o.cores = 0 }, []string{"-cores 0"}},
		{"zero dim", func(o *options) { o.dim = 0 }, []string{"-dim 0"}},
		{"zero rows", func(o *options) { o.rows = 0 }, []string{"-rows 0"}},
		{"negative tables", func(o *options) { o.tables = -1 }, []string{"-tables -1"}},
		{"zero batch", func(o *options) { o.batch = 0 }, []string{"-batch 0"}},
		{"zero lookups", func(o *options) { o.lookups = 0 }, []string{"-lookups 0"}},
		{"every bad flag at once", func(o *options) { o.rows, o.cores, o.dim = 0, 0, 0 }, []string{"-rows 0", "-cores 0", "-dim 0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodOptions()
			tc.mut(&o)
			_, _, err := o.validate()
			if err == nil {
				t.Fatalf("accepted bad flags %+v", o)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestValidateGoodInputs: the defaults and the usage examples pass, and
// -cores sets both the model's cores and the trace's batches.
func TestValidateGoodInputs(t *testing.T) {
	for name, mut := range map[string]func(*options){
		"defaults":    func(*options) {},
		"fig7":        func(o *options) { o.hotness = "low" },
		"single core": func(o *options) { o.hotness, o.cores = "high", 1 },
	} {
		o := goodOptions()
		mut(&o)
		tc, mc, err := o.validate()
		if err != nil {
			t.Errorf("%s: rejected good flags: %v", name, err)
		}
		if tc.Batches != o.cores || mc.Cores != o.cores || mc.EmbeddingDim != o.dim || len(mc.Caches) != 3 {
			t.Errorf("%s: configs %+v and %+v do not follow the flags %+v", name, tc, mc, o)
		}
	}
}
