package cluster

import (
	"math"
	"strings"
	"testing"

	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/trace"
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
		Hotness:         trace.RandomAccess + 1,
		SamplesPerQuery: 0,
		MeanArrivalMs:   -1,
		Timing:          Timing{ColdLookupUs: -2, HotLookupUs: -1, SubRequestUs: -1, DenseMs: -1},
		Net:             Network{LatencyMs: -1, BandwidthGBs: -1},
		ServersPerNode:  -3,
		JitterFrac:      -0.5,
		Queries:         -7,
		// Four fault-model and two mitigation violations, each reported.
		Faults: FaultModel{DropProb: 2, SlowdownEveryMs: 10, SlowdownMeanMs: 1, SlowdownFactor: 0.5,
			DownEveryMs: 5, DropDetectMs: math.NaN()},
		Mitigation: Mitigation{MaxRetries: 3, DegradedJoin: true},
		Chaos: ChaosSchedule{
			Domains: 9,
			Events:  []ChaosEvent{{Kind: DomainOutage, Domain: 2, AtMs: 10, ForMs: -5}},
		},
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted a config with twenty violations")
	}
	// Simulate gates on the same validator, so it reports the same list.
	_, serr := Simulate(cfg)
	if serr == nil {
		t.Fatal("Simulate accepted a config Validate rejects")
	}
	for _, want := range []string{
		"unknown hotness class 5",
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
		"slowdown factor 0.5",
		"unavailability windows need a positive mean duration",
		"drop detection delay NaN",
		"retries need a timeout",
		"degraded joins need a timeout",
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

// TestConfigValidateRejectsNonFinite: NaN passes every x < 0 check, so
// each float knob must be range-checked in a form NaN fails, and +Inf
// rejected outright. One case per field, each run with NaN and +Inf;
// Simulate must refuse what Validate does.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		want string
		set  func(*Config, float64)
	}{
		{"mean arrival", func(c *Config, v float64) { c.MeanArrivalMs = v }},
		{"jitter fraction", func(c *Config, v float64) { c.JitterFrac = v }},
		{"network parameters", func(c *Config, v float64) { c.Net.LatencyMs = v }},
		{"network parameters", func(c *Config, v float64) { c.Net.BandwidthGBs = v }},
		{"cold lookup", func(c *Config, v float64) { c.Timing.ColdLookupUs = v }},
		{"hot lookup", func(c *Config, v float64) { c.Timing.HotLookupUs = v }},
		{"sub-request overhead", func(c *Config, v float64) { c.Timing.SubRequestUs = v }},
		{"dense-stage", func(c *Config, v float64) { c.Timing.DenseMs = v }},
		{"slowdown interval", func(c *Config, v float64) { c.Faults.SlowdownEveryMs = v }},
		{"slowdown duration", func(c *Config, v float64) { c.Faults.SlowdownMeanMs = v }},
		{"slowdown factor", func(c *Config, v float64) {
			c.Faults = FaultModel{SlowdownEveryMs: 10, SlowdownMeanMs: 1, SlowdownFactor: v}
		}},
		{"outage interval", func(c *Config, v float64) { c.Faults.DownEveryMs = v }},
		{"outage duration", func(c *Config, v float64) { c.Faults.DownMeanMs = v }},
		{"drop probability", func(c *Config, v float64) { c.Faults.DropProb = v }},
		{"drop detection delay", func(c *Config, v float64) { c.Faults = FaultModel{DropProb: 0.1, DropDetectMs: v} }},
		{"mitigation timeout", func(c *Config, v float64) { c.Mitigation.TimeoutMs = v }},
		{"hedge delay", func(c *Config, v float64) { c.Mitigation.HedgeDelayMs = v }},
		{"retry budget", func(c *Config, v float64) { c.Mitigation.RetryBudget = v }},
		{"adaptive epoch", func(c *Config, v float64) { c.Mitigation.AdaptEpochMs = v }},
		{"breaker trip rate", func(c *Config, v float64) { c.Mitigation.BreakerTripRate = v }},
		{"breaker cooldown", func(c *Config, v float64) { c.Mitigation.BreakerCooldownMs = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			cfg := Config{
				Plan:            validPlan(t),
				SamplesPerQuery: 4,
				MeanArrivalMs:   1,
				Queries:         50,
				Timing:          Timing{ColdLookupUs: 0.5},
			}
			tc.set(&cfg, v)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s = %g: err %v, want mention of %q", tc.want, v, err, tc.want)
			}
			if _, serr := Simulate(cfg); serr == nil {
				t.Errorf("%s = %g: Simulate accepted what Validate rejects", tc.want, v)
			}
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
