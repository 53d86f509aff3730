package main

import (
	"strings"
	"testing"

	"dlrmsim/internal/core"
	"dlrmsim/internal/trace"
)

const testPlatformCores = 40

// goodFlags mirrors the flag defaults.
func goodFlags() mainFlags {
	return mainFlags{
		modelName: "rm2_1", hotness: "low", schemes: "baseline,swpf,mpht,integrated",
		scale: 8, requests: 3000,
	}
}

// TestValidateBadInputs is the CLI bad-input regression table: every row
// is a flag combination a user has plausibly typed, and each must be
// rejected with a message naming the offending flag — before any engine
// work starts.
func TestValidateBadInputs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*mainFlags)
		want string
	}{
		{"cores above platform", func(o *mainFlags) { o.cores = 999 }, "-cores 999"},
		{"negative cores", func(o *mainFlags) { o.cores = -3 }, "-cores -3"},
		{"zero scale", func(o *mainFlags) { o.scale = 0 }, "-scale 0"},
		{"zero requests", func(o *mainFlags) { o.requests = 0 }, "-requests 0"},
		{"unknown hotness", func(o *mainFlags) { o.hotness = "scorching" }, "unknown hotness"},
		{"one-item hotness", func(o *mainFlags) { o.hotness = "one-item" }, "-hotness one-item"},
		{"random hotness", func(o *mainFlags) { o.hotness = "random" }, "-hotness random"},
		{"unknown model", func(o *mainFlags) { o.modelName = "rm9" }, "rm9"},
		{"unknown last scheme", func(o *mainFlags) { o.schemes = "baseline,swpf,turbo" }, "turbo"},
		{"empty scheme entry", func(o *mainFlags) { o.schemes = "baseline,,mpht" }, "scheme"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodFlags()
			tc.mut(&o)
			_, _, err := o.validate(testPlatformCores)
			if err == nil {
				t.Fatalf("validate accepted %+v", o)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateReportsAllErrors pins collect-all reporting: one run names
// every bad flag, not just the first.
func TestValidateReportsAllErrors(t *testing.T) {
	o := mainFlags{modelName: "rm9", hotness: "random", schemes: "turbo", scale: 0, cores: -1, requests: 0}
	_, _, err := o.validate(testPlatformCores)
	if err == nil {
		t.Fatal("validate accepted an all-bad command line")
	}
	for _, want := range []string{"rm9", "-hotness random", "turbo", "-scale 0", "-cores -1", "-requests 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestValidateGoodInputs pins what must pass, and what validate returns.
func TestValidateGoodInputs(t *testing.T) {
	o := goodFlags()
	o.hotness, o.schemes, o.cores = "med", " baseline , integrated", testPlatformCores
	h, schemes, err := o.validate(testPlatformCores)
	if err != nil {
		t.Fatalf("validate rejected %+v: %v", o, err)
	}
	if h != trace.MediumHot {
		t.Errorf("hotness %v, want %v", h, trace.MediumHot)
	}
	if len(schemes) != 2 || schemes[0] != core.Baseline || schemes[1] != core.Integrated {
		t.Errorf("schemes %v, want [baseline integrated]", schemes)
	}
	if _, _, err := goodFlags().validate(testPlatformCores); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}
