package main

import (
	"math"
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
// rejected — before any engine work starts — with a message naming the
// offending flag, or the library config field it sets.
func TestValidateBadInputs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*mainFlags)
		set  []string // flags "explicitly given" beyond the mutation
		want string
	}{
		{"negative scale", func(o *mainFlags) { o.scale = -1 }, nil, "-scale"},
		{"zero batch", func(o *mainFlags) { o.batch = 0 }, nil, "-batch"},
		{"negative cores", func(o *mainFlags) { o.cores = -2 }, nil, "core: -2 cores"},
		{"cores above platform", func(o *mainFlags) { o.cores = 100 }, nil, "core: 100 cores on a 24-core"},
		{"unknown hotness", func(o *mainFlags) { o.hotness = "scorching" }, nil, "unknown hotness"},
		{"unknown model", func(o *mainFlags) { o.modelName = "bogus" }, nil, `unknown model "bogus"`},
		{"unknown scheme", func(o *mainFlags) { o.scheme = "turbo" }, nil, `unknown scheme "turbo"`},
		{"unknown model with zero requests", func(o *mainFlags) { o.modelName = "bogus"; o.requests = 0 }, nil, `unknown model "bogus"`},
		{"synthetic hotness", func(o *mainFlags) { o.hotness = "one-item" }, nil, "-hotness one-item"},
		{"random hotness", func(o *mainFlags) { o.hotness = "random" }, nil, "-hotness random"},
		{"zero requests", func(o *mainFlags) { o.requests = 0 }, nil, "-requests"},
		{"negative arrival", func(o *mainFlags) { o.arrival = -0.5 }, nil, "mean arrival -0.5 ms"},
		{"util at 1", func(o *mainFlags) { o.util = 1 }, nil, "-util"},
		{"negative jitter", func(o *mainFlags) { o.jitter = -0.1 }, nil, "jitter fraction -0.1"},
		{"huge jitter", func(o *mainFlags) { o.jitter = 3 }, nil, "jitter fraction 3"},
		{"unknown mix", func(o *mainFlags) { o.mix = "tpu9" }, nil, "unknown device mix"},
		{"unknown policy", func(o *mainFlags) { o.policy = "random" }, nil, "unknown policy"},
		{"gather without dense", func(o *mainFlags) { o.gather = 40 }, []string{"gather"}, "-gather and -dense"},
		{"dense without gather", func(o *mainFlags) { o.dense = 30 }, []string{"dense"}, "-gather and -dense"},
		{"zero gather", func(o *mainFlags) { o.dense = 30 }, []string{"gather", "dense"}, "-gather 0"},
		{"negative dense", func(o *mainFlags) { o.gather = 40; o.dense = -1 }, []string{"gather", "dense"}, "negative work -0.25"},
		{"model with synthetic graph", func(o *mainFlags) { o.gather = 40; o.dense = 30 },
			[]string{"gather", "dense", "model"}, "-model is an engine-calibration flag"},
		{"scale with synthetic graph", func(o *mainFlags) { o.gather = 40; o.dense = 30 },
			[]string{"gather", "dense", "scale"}, "-scale is an engine-calibration flag"},
		{"negative maxbatch", func(o *mainFlags) { o.maxBatch = -4 }, []string{"maxbatch"}, "negative max batch -4"},
		{"negative hold", func(o *mainFlags) { o.hold = -1 }, []string{"hold"}, "negative hold window -1"},
		{"NaN gather", func(o *mainFlags) { o.gather = math.NaN(); o.dense = 30 }, []string{"gather", "dense"}, "phase 0 has non-finite or negative work NaN"},
		{"+Inf dense", func(o *mainFlags) { o.gather = 40; o.dense = math.Inf(1) }, []string{"gather", "dense"}, "negative work +Inf"},
		{"NaN util", func(o *mainFlags) { o.util = math.NaN() }, nil, "-util NaN"},
		{"NaN arrival", func(o *mainFlags) { o.arrival = math.NaN() }, nil, "mean arrival NaN ms"},
		{"NaN jitter", func(o *mainFlags) { o.jitter = math.NaN() }, nil, "jitter fraction NaN"},
		{"NaN hold", func(o *mainFlags) { o.hold = math.NaN() }, []string{"hold"}, "hold window NaN"},
		{"maxbatch without a gpu", func(o *mainFlags) { o.mix = "cpu4"; o.maxBatch = 64 },
			[]string{"maxbatch"}, "need a single mix containing one"},
		{"hold with mix all", func(o *mainFlags) { o.mix = "all"; o.hold = 40 },
			[]string{"hold"}, "need a single mix containing one"},
		{"gpu hold without batching", func(o *mainFlags) { o.mix = "cpu2gpu1"; o.maxBatch = 1; o.hold = 40 },
			[]string{"maxbatch", "hold"}, "holds 40 µs for batches but MaxBatch is 1"},
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
			_, err := o.validate(isSet)
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
			if _, err := o.validate(func(name string) bool { return set[name] }); err != nil {
				t.Fatalf("validate rejected %+v: %v", o, err)
			}
		})
	}
}
