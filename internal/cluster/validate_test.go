package cluster

import (
	"strings"
	"testing"

	"dlrmsim/internal/dlrm"
)

func validPlan(t *testing.T) *Plan {
	t.Helper()
	plan, err := NewPlan(dlrm.RM2Small().Scaled(20), 4, RowRange, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestConfigValidateCollectsAllViolations: every problem in one report.
func TestConfigValidateCollectsAllViolations(t *testing.T) {
	cfg := Config{
		Plan:            validPlan(t),
		SamplesPerQuery: 0,
		MeanArrivalMs:   -1,
		Timing:          Timing{ColdLookupUs: -2, HotLookupUs: -1, SubRequestUs: -1, DenseMs: -1},
		Net:             Network{LatencyMs: -1, BandwidthGBs: -1},
		ServersPerNode:  -3,
		JitterFrac:      -0.5,
		Queries:         -7,
		Faults:          FaultModel{DropProb: 2},
		Mitigation:      Mitigation{MaxRetries: 3},
		Chaos: ChaosSchedule{
			Domains: 9,
			Events:  []ChaosEvent{{Kind: DomainOutage, Domain: 2, AtMs: 10, ForMs: -5}},
		},
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted a config with fourteen violations")
	}
	// Simulate gates on the same validator, so it reports the same list.
	_, serr := Simulate(cfg)
	if serr == nil {
		t.Fatal("Simulate accepted a config Validate rejects")
	}
	for _, want := range []string{
		"samples per query",
		"mean arrival",
		"cold lookup",
		"hot lookup",
		"sub-request overhead",
		"dense-stage",
		"latency -1 ms",
		"bandwidth -1 GB/s",
		"-3 servers per node",
		"jitter fraction",
		"-7 queries",
		"drop probability",
		"retries need a timeout",
		"chaos domains exceed",
		"window length -5",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
		if !strings.Contains(serr.Error(), want) {
			t.Errorf("Simulate error missing %q:\n%v", want, serr)
		}
	}
}

// TestConfigValidateDoesNotMutate: unlike applyDefaults (which fills
// DropDetectMs and other defaults in place), Validate must leave the
// config untouched — callers validate the same value they later simulate.
func TestConfigValidateDoesNotMutate(t *testing.T) {
	cfg := Config{
		Plan:            validPlan(t),
		SamplesPerQuery: 4,
		MeanArrivalMs:   1,
		Timing:          Timing{ColdLookupUs: 0.5},
		Faults:          FaultModel{DropProb: 0.1}, // DropDetectMs unset
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if cfg.Faults.DropDetectMs != 0 || cfg.ServersPerNode != 0 || cfg.Queries != 0 {
		t.Errorf("Validate mutated the config: %+v", cfg)
	}
}

func TestConfigValidateAcceptsDefaults(t *testing.T) {
	cfg := Config{
		Plan:            validPlan(t),
		SamplesPerQuery: 4,
		MeanArrivalMs:   1,
		Timing:          Timing{ColdLookupUs: 0.5},
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero-means-default config rejected: %v", err)
	}
	if _, err := Simulate(cfg); err != nil {
		t.Errorf("validated config fails to simulate: %v", err)
	}
}

// TestConfigValidateWarmupBounds mirrors applyDefaults' warmup semantics
// (0 = default, -1 = explicit zero, < -1 invalid, >= queries invalid).
func TestConfigValidateWarmupBounds(t *testing.T) {
	base := Config{
		Plan:            validPlan(t),
		SamplesPerQuery: 4,
		MeanArrivalMs:   1,
		Timing:          Timing{ColdLookupUs: 0.5},
	}
	for warmup, wantOK := range map[int]bool{0: true, -1: true, -2: false, 100: true, 4000: false} {
		cfg := base
		cfg.Queries = 2000
		cfg.WarmupQueries = warmup
		if err := cfg.Validate(); (err == nil) != wantOK {
			t.Errorf("warmup %d: err = %v, want ok=%v", warmup, err, wantOK)
		}
	}
}
