package serve

import (
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
