package serve

import (
	"errors"
	"fmt"

	"dlrmsim/internal/check"
)

// Validate reports every violation in the serving config at once
// (errors.Join), without mutating it. Simulate runs it before filling
// defaults. Zero-means-default fields (Requests, WarmupRequests) are
// accepted as zero.
func (c Config) Validate() error {
	var errs []error
	if c.Cores < 1 {
		errs = append(errs, fmt.Errorf("serve: %d cores", c.Cores))
	}
	if !check.Positive(c.MeanArrivalMs) || !check.Positive(c.ServiceMs) {
		errs = append(errs, fmt.Errorf("serve: non-finite or non-positive times (arrival %g ms, service %g ms)",
			c.MeanArrivalMs, c.ServiceMs))
	}
	if !check.NonNeg(c.JitterFrac) {
		errs = append(errs, fmt.Errorf("serve: jitter fraction %g (need finite >= 0)", c.JitterFrac))
	}
	if c.Requests < 0 {
		errs = append(errs, fmt.Errorf("serve: %d requests", c.Requests))
	}
	if c.WarmupRequests < -1 {
		errs = append(errs, fmt.Errorf("serve: warmup %d (use -1 for explicit zero)", c.WarmupRequests))
	}
	if n, w := Defaults(c.Requests, c.WarmupRequests); w >= n {
		errs = append(errs, fmt.Errorf("serve: warmup %d >= requests %d", c.WarmupRequests, n))
	}
	if !check.NonNeg(c.SLATargetMs) {
		errs = append(errs, fmt.Errorf("serve: SLA target %g ms (need finite >= 0)", c.SLATargetMs))
	}
	return errors.Join(errs...)
}

// Validate reports every violation in the batching config at once
// (errors.Join), naming each bad field, without mutating it.
// SimulateBatching runs it before filling defaults; Queries 0 means the
// default.
func (c BatchingConfig) Validate() error {
	var errs []error
	for _, f := range []struct {
		name string
		v    float64
		ok   bool
		want string
	}{
		{"Cores", float64(c.Cores), c.Cores >= 1, ">= 1"},
		{"MaxBatch", float64(c.MaxBatch), c.MaxBatch >= 1, ">= 1"},
		{"Queries", float64(c.Queries), c.Queries >= 0, ">= 0"},
		{"MeanArrivalMs", c.MeanArrivalMs, check.Positive(c.MeanArrivalMs), "finite > 0"},
		{"MaxWaitMs", c.MaxWaitMs, check.Positive(c.MaxWaitMs), "finite > 0"},
		{"ServiceBaseMs", c.ServiceBaseMs, check.NonNeg(c.ServiceBaseMs), "finite >= 0"},
		{"ServicePerQueryMs", c.ServicePerQueryMs, check.Positive(c.ServicePerQueryMs), "finite > 0"},
	} {
		if !f.ok {
			errs = append(errs, fmt.Errorf("serve: batching %s %g (need %s)", f.name, f.v, f.want))
		}
	}
	return errors.Join(errs...)
}
