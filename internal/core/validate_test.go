package core

import (
	"reflect"
	"strings"
	"testing"

	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/platform"
)

// TestValidateCollectsAllViolations: one call reports every problem, not
// just the first — the CLI contract that lets a user fix a whole bad flag
// set in one round trip.
func TestValidateCollectsAllViolations(t *testing.T) {
	opts := Options{
		Model:               dlrm.RM2Small(),
		BatchSize:           -1,
		Batches:             -2,
		Cores:               1000,
		Scheme:              Scheme(99),
		BandwidthIterations: -3,
	}
	wants := []string{
		"negative batch size -1",
		"negative batch count -2",
		"1000 cores",
		"invalid scheme 99",
		"negative bandwidth iterations -3",
	}
	// A named but zeroed CPU is not defaulted: Run must refuse it rather
	// than hand the core model a zero issue width.
	zeroCPU := Options{Model: dlrm.RM2Small().Scaled(20), CPU: platform.CPU{Name: "zeroed"}}
	zeroWants := []string{"zeroed: 0 cores", "non-positive frequency", "IssueWidth"}
	for _, tc := range []struct {
		opts  Options
		wants []string
	}{{opts, wants}, {zeroCPU, zeroWants}} {
		verr := tc.opts.Validate()
		_, rerr := Run(tc.opts)
		if verr == nil || rerr == nil {
			t.Fatalf("Validate err %v, Run err %v: both must reject %+v", verr, rerr, tc.opts)
		}
		for _, want := range tc.wants {
			if !strings.Contains(verr.Error(), want) {
				t.Errorf("Validate error missing %q:\n%v", want, verr)
			}
			if !strings.Contains(rerr.Error(), want) {
				t.Errorf("Run error missing %q:\n%v", want, rerr)
			}
		}
	}
}

func TestValidateAcceptsZeroMeansDefault(t *testing.T) {
	if err := (Options{Model: dlrm.RM2Small()}).Validate(); err != nil {
		t.Errorf("zero-valued options rejected: %v", err)
	}
	opts := Options{Model: dlrm.RM2Small(), CPU: platform.IceLake(), Cores: 32}
	if err := opts.Validate(); err != nil {
		t.Errorf("full platform core count rejected: %v", err)
	}
}

// TestResolveFillsEveryDefault: zero options resolve to the engine's
// defaults (TestDefaultPrefetchFromPlatform covers the SW-PF knobs),
// resolving again changes nothing (the engine re-resolves what
// exp already resolved), and Resolve rejects what Validate rejects.
func TestResolveFillsEveryDefault(t *testing.T) {
	o, err := Options{Model: dlrm.RM2Small()}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	csl := platform.CascadeLake()
	if !reflect.DeepEqual(o.CPU, csl) || o.BatchSize != 64 || o.Batches != 1 ||
		o.Cores != csl.Cores || o.Sockets != 1 || o.ActiveCores != csl.Cores {
		t.Errorf("resolved = %+v", o)
	}
	if again, err := o.Resolve(); err != nil || !reflect.DeepEqual(again, o) {
		t.Errorf("resolving twice changed the options (err %v)", err)
	}
	if _, err := (Options{Model: dlrm.RM2Small(), Sockets: 3}).Resolve(); err == nil {
		t.Error("Resolve accepted what Validate rejects")
	}
}

func TestValidateEmbeddingOnlySMT(t *testing.T) {
	opts := Options{Model: dlrm.RM2Small(), Scheme: MPHT, EmbeddingOnly: true}
	if err := opts.Validate(); err == nil {
		t.Error("embedding-only with an SMT scheme accepted")
	}
}

// TestRunRejectsNegativeGeometry is the flag-audit regression: negative
// batch geometry used to slip through the default pass (only == 0 was
// checked) and surfaced as empty work lists and NaN throughput downstream.
// Run rejects each field with its own Validate message.
func TestRunRejectsNegativeGeometry(t *testing.T) {
	for want, opts := range map[string]Options{
		"negative batch size":           {Model: dlrm.RM2Small().Scaled(20), BatchSize: -8},
		"negative batch count":          {Model: dlrm.RM2Small().Scaled(20), Batches: -1},
		"negative bandwidth iterations": {Model: dlrm.RM2Small().Scaled(20), BandwidthIterations: -2},
	} {
		if _, err := Run(opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run(%+v) err = %v, want %q", opts, err, want)
		}
	}
}

// TestRunNUMARejectsEachViolation: Run validates the socket fields before
// any work, so each bad one fails with its own message — a third socket
// does not run unwired and a negative active-core count does not surface
// as an empty work list.
func TestRunNUMARejectsEachViolation(t *testing.T) {
	for want, mutate := range map[string]func(*Options){
		"3 sockets":                       func(o *Options) { o.Sockets = 3 },
		"-1 sockets":                      func(o *Options) { o.Sockets = -1 },
		"-1 active cores":                 func(o *Options) { o.ActiveCores = -1 },
		"3 active cores outside [0, 2]":   func(o *Options) { o.ActiveCores = 3 },
		"5 active cores outside [0, 4]":   func(o *Options) { o.Sockets, o.ActiveCores = 2, 5 },
		"negative batch size":             func(o *Options) { o.BatchSize = -16 },
		"negative bandwidth iterations":   func(o *Options) { o.BandwidthIterations = -1 },
		"49 active cores outside [0, 48]": func(o *Options) { o.Sockets, o.Cores, o.ActiveCores = 2, 0, 49 },
	} {
		o := numaOpts()
		mutate(&o)
		if _, err := Run(o); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Run err = %v", want, err)
		}
	}
}

// TestNUMAValidateCollectsAllViolations: the socket checks join the other
// Options violations in one collect-all error.
func TestNUMAValidateCollectsAllViolations(t *testing.T) {
	o := numaOpts()
	o.Model.Tables = 0
	o.Sockets, o.Cores, o.ActiveCores = 3, -2, -1
	o.BatchSize, o.BandwidthIterations = -16, -1
	err := o.Validate()
	if err == nil {
		t.Fatal("accepted every violation at once")
	}
	for _, want := range []string{"dlrm:", "3 sockets", "-2 cores",
		"-1 active cores", "negative batch size -16", "negative bandwidth iterations -1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate error missing %q:\n%v", want, err)
		}
	}
	for _, sockets := range []int{0, 1, 2} {
		if err := (Options{Model: dlrm.RM2Small(), Sockets: sockets}).Validate(); err != nil {
			t.Errorf("%d sockets rejected: %v", sockets, err)
		}
	}
	if err := (Options{Model: dlrm.RM2Small(), Sockets: -1}).Validate(); err == nil || !strings.Contains(err.Error(), "-1 sockets") {
		t.Errorf("-1 sockets: err = %v, want a socket-count error", err)
	}
}
