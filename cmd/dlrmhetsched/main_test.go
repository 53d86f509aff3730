package main

import (
	"strings"
	"testing"
)

// goodFlags mirrors the flag defaults relevant to validation.
func goodFlags() mainFlags {
	return mainFlags{
		mix: "hetero", policy: "affinity",
		modelName: "rm2_1", hotness: "medium", scheme: "baseline",
		scale: 8, batch: 8,
		requests: 4000, util: 0.75, jitter: 0.25,
	}
}

func setNone(string) bool { return false }

// TestValidateBadInputs is the CLI bad-input regression table: every row
// is a flag combination a user has plausibly typed, and each must be
// rejected with a message naming the offending flag — before any engine
// work starts.
func TestValidateBadInputs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*mainFlags)
		set  []string // flags "explicitly given" beyond the mutation
		want string
	}{
		{"negative scale", func(o *mainFlags) { o.scale = -1 }, nil, "-scale"},
		{"zero batch", func(o *mainFlags) { o.batch = 0 }, nil, "-batch"},
		{"negative cores", func(o *mainFlags) { o.cores = -2 }, nil, "-cores"},
		{"unknown hotness", func(o *mainFlags) { o.hotness = "scorching" }, nil, "unknown hotness"},
		{"synthetic hotness", func(o *mainFlags) { o.hotness = "one-item" }, nil, "-hotness one-item"},
		{"random hotness", func(o *mainFlags) { o.hotness = "random" }, nil, "-hotness random"},
		{"zero requests", func(o *mainFlags) { o.requests = 0 }, nil, "-requests"},
		{"negative arrival", func(o *mainFlags) { o.arrival = -0.5 }, nil, "-arrival"},
		{"util at 1", func(o *mainFlags) { o.util = 1 }, nil, "-util"},
		{"negative jitter", func(o *mainFlags) { o.jitter = -0.1 }, nil, "-jitter"},
		{"huge jitter", func(o *mainFlags) { o.jitter = 3 }, nil, "-jitter"},
		{"unknown mix", func(o *mainFlags) { o.mix = "tpu9" }, nil, "unknown device mix"},
		{"unknown policy", func(o *mainFlags) { o.policy = "random" }, nil, "unknown policy"},
		{"gather without dense", func(o *mainFlags) { o.gather = 40 }, []string{"gather"}, "-gather and -dense"},
		{"dense without gather", func(o *mainFlags) { o.dense = 30 }, []string{"dense"}, "-gather and -dense"},
		{"zero gather", func(o *mainFlags) { o.dense = 30 }, []string{"gather", "dense"}, "-gather 0"},
		{"negative dense", func(o *mainFlags) { o.gather = 40; o.dense = -1 }, []string{"gather", "dense"}, "-dense"},
		{"model with synthetic graph", func(o *mainFlags) { o.gather = 40; o.dense = 30 },
			[]string{"gather", "dense", "model"}, "-model is an engine-calibration flag"},
		{"scale with synthetic graph", func(o *mainFlags) { o.gather = 40; o.dense = 30 },
			[]string{"gather", "dense", "scale"}, "-scale is an engine-calibration flag"},
		{"negative maxbatch", func(o *mainFlags) { o.maxBatch = -4 }, nil, "-maxbatch"},
		{"negative hold", func(o *mainFlags) { o.hold = -1 }, nil, "-hold"},
		{"maxbatch without a gpu", func(o *mainFlags) { o.mix = "cpu4"; o.maxBatch = 64 },
			[]string{"maxbatch"}, "need a single mix containing one"},
		{"hold with mix all", func(o *mainFlags) { o.mix = "all"; o.hold = 40 },
			[]string{"hold"}, "need a single mix containing one"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodFlags()
			tc.mut(&o)
			isSet := setNone
			if len(tc.set) > 0 {
				set := map[string]bool{}
				for _, name := range tc.set {
					set[name] = true
				}
				isSet = func(name string) bool { return set[name] }
			}
			err := o.validate(isSet)
			if err == nil {
				t.Fatalf("validate accepted %+v", o)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateGoodInputs pins the combinations that must pass: the
// defaults, a synthetic graph, an explicit arrival, and a GPU override.
func TestValidateGoodInputs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*mainFlags)
		set  []string
	}{
		{"defaults", func(o *mainFlags) {}, nil},
		{"all mixes and policies", func(o *mainFlags) { o.mix = "all"; o.policy = "all" }, nil},
		{"synthetic graph", func(o *mainFlags) { o.gather = 40; o.dense = 30 }, []string{"gather", "dense"}},
		{"explicit arrival ignores util", func(o *mainFlags) { o.arrival = 0.05; o.util = 0 }, []string{"arrival"}},
		{"gpu override", func(o *mainFlags) { o.mix = "cpu2gpu1"; o.maxBatch = 64; o.hold = 40 },
			[]string{"maxbatch", "hold"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodFlags()
			tc.mut(&o)
			set := map[string]bool{}
			for _, name := range tc.set {
				set[name] = true
			}
			if err := o.validate(func(name string) bool { return set[name] }); err != nil {
				t.Fatalf("validate rejected %+v: %v", o, err)
			}
		})
	}
}
