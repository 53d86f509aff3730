package core

import (
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

func TestValidateEmbeddingOnlySMT(t *testing.T) {
	opts := Options{Model: dlrm.RM2Small(), Scheme: MPHT, EmbeddingOnly: true}
	if err := opts.Validate(); err == nil {
		t.Error("embedding-only with an SMT scheme accepted")
	}
}

// TestRunRejectsNegativeGeometry is the flag-audit regression: negative
// batch geometry used to slip through applyDefaults (only == 0 was
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

// TestRunNUMARejectsEachViolation: RunNUMA validates before any work, so
// each bad field fails with its own message — a third socket no longer
// runs unwired, negative geometry no longer surfaces as a trace error,
// and a negative fixed-point budget is no longer read as the default.
func TestRunNUMARejectsEachViolation(t *testing.T) {
	for want, mutate := range map[string]func(*NUMAOptions){
		"3 sockets":                     func(o *NUMAOptions) { o.Sockets = 3 },
		"-1 sockets":                    func(o *NUMAOptions) { o.Sockets = -1 },
		"negative cores per socket":     func(o *NUMAOptions) { o.CoresPerSocket = -2 },
		"negative active cores":         func(o *NUMAOptions) { o.ActiveCores = -1 },
		"negative batch size":           func(o *NUMAOptions) { o.BatchSize = -16 },
		"negative bandwidth iterations": func(o *NUMAOptions) { o.BandwidthIterations = -1 },
	} {
		o := numaOpts()
		mutate(&o)
		if _, err := RunNUMA(o); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: RunNUMA err = %v", want, err)
		}
	}
}

// TestNUMAValidateCollectsAllViolations is the NUMA counterpart of
// TestValidateCollectsAllViolations.
func TestNUMAValidateCollectsAllViolations(t *testing.T) {
	o := numaOpts()
	o.Model.Tables = 0
	o.Sockets, o.CoresPerSocket, o.ActiveCores = 3, -2, -1
	o.BatchSize, o.BandwidthIterations = -16, -1
	err := o.Validate()
	if err == nil {
		t.Fatal("accepted every violation at once")
	}
	for _, want := range []string{"dlrm:", "3 sockets", "negative cores per socket -2",
		"negative active cores -1", "negative batch size -16", "negative bandwidth iterations -1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate error missing %q:\n%v", want, err)
		}
	}
	if err := (NUMAOptions{Model: dlrm.RM2Small()}).Validate(); err != nil {
		t.Errorf("zero-valued options rejected: %v", err)
	}
}
