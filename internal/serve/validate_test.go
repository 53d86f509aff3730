package serve

import (
	"math"
	"strings"
	"testing"
)

func TestConfigValidateCollectsAllViolations(t *testing.T) {
	cfg := Config{
		Cores:          0,
		MeanArrivalMs:  -1,
		ServiceMs:      0,
		JitterFrac:     -0.1,
		Requests:       -5,
		WarmupRequests: -2,
		SLATargetMs:    -3,
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted a config with six violations")
	}
	// Simulate gates on the same validator, so it reports the same list.
	_, serr := Simulate(cfg)
	if serr == nil {
		t.Fatal("Simulate accepted a config Validate rejects")
	}
	for _, want := range []string{
		"0 cores",
		"non-positive times",
		"jitter fraction",
		"-5 requests",
		"warmup -2",
		"SLA target",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
		if !strings.Contains(serr.Error(), want) {
			t.Errorf("Simulate error missing %q:\n%v", want, serr)
		}
	}
}

// TestConfigValidateRejectsNonFinite: NaN passes every x < 0 check and
// +Inf every lower bound, so each float field is checked in a form both
// fail. One case per field, each run with NaN and +Inf.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		want string
		set  func(*Config, float64)
	}{
		{"times", func(c *Config, v float64) { c.MeanArrivalMs = v }},
		{"times", func(c *Config, v float64) { c.ServiceMs = v }},
		{"jitter fraction", func(c *Config, v float64) { c.JitterFrac = v }},
		{"SLA target", func(c *Config, v float64) { c.SLATargetMs = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			cfg := Config{Cores: 2, MeanArrivalMs: 1, ServiceMs: 0.5, Requests: 50}
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

func TestConfigValidateAcceptsDefaults(t *testing.T) {
	cfg := Config{Cores: 2, MeanArrivalMs: 1, ServiceMs: 0.5}
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero-means-default config rejected: %v", err)
	}
	if _, err := Simulate(cfg); err != nil {
		t.Errorf("validated config fails to simulate: %v", err)
	}
	cfg.WarmupRequests = 5000 // above the 2000-request default
	if err := cfg.Validate(); err == nil {
		t.Error("warmup above default request count accepted")
	}
}

func TestBatchingConfigValidateNamesEachField(t *testing.T) {
	for _, tc := range []struct {
		field string
		mut   func(*BatchingConfig)
	}{
		{"Cores", func(c *BatchingConfig) { c.Cores = 0 }},
		{"MaxBatch", func(c *BatchingConfig) { c.MaxBatch = 0 }},
		{"Queries", func(c *BatchingConfig) { c.Queries = -1 }},
		{"MeanArrivalMs", func(c *BatchingConfig) { c.MeanArrivalMs = 0 }},
		{"MaxWaitMs", func(c *BatchingConfig) { c.MaxWaitMs = math.Inf(1) }},
		{"ServiceBaseMs", func(c *BatchingConfig) { c.ServiceBaseMs = -1 }},
		{"ServicePerQueryMs", func(c *BatchingConfig) { c.ServicePerQueryMs = math.NaN() }},
	} {
		cfg := batchCfg()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) || strings.Contains(err.Error(), "{") {
			t.Errorf("%s: Validate() = %v, want an error naming the field and no struct dump", tc.field, err)
			continue
		}
		if _, serr := SimulateBatching(cfg); serr == nil || serr.Error() != err.Error() {
			t.Errorf("%s: SimulateBatching error %v, want Validate's %v", tc.field, serr, err)
		}
	}
	// Every violation is reported at once.
	cfg := batchCfg()
	cfg.Cores, cfg.MaxWaitMs = 0, 0
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Cores") || !strings.Contains(err.Error(), "MaxWaitMs") {
		t.Errorf("two bad fields: Validate() = %v, want both named", err)
	}
	if err := batchCfg().Validate(); err != nil {
		t.Errorf("the test config is rejected: %v", err)
	}
}
