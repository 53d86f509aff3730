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
