package serve

import (
	"errors"
	"fmt"
	"math"
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
	// NaN fails every ordered comparison, so each range check is written
	// to fail on it; +Inf is rejected separately.
	if !(c.MeanArrivalMs > 0 && c.ServiceMs > 0) || math.IsInf(c.MeanArrivalMs, 1) || math.IsInf(c.ServiceMs, 1) {
		errs = append(errs, fmt.Errorf("serve: non-finite or non-positive times (arrival %g ms, service %g ms)",
			c.MeanArrivalMs, c.ServiceMs))
	}
	if !(c.JitterFrac >= 0) || math.IsInf(c.JitterFrac, 1) {
		errs = append(errs, fmt.Errorf("serve: jitter fraction %g (need finite >= 0)", c.JitterFrac))
	}
	if c.Requests < 0 {
		errs = append(errs, fmt.Errorf("serve: %d requests", c.Requests))
	}
	if c.WarmupRequests < -1 {
		errs = append(errs, fmt.Errorf("serve: warmup %d (use -1 for explicit zero)", c.WarmupRequests))
	}
	requests := c.Requests
	if requests == 0 {
		requests = 2000
	}
	if c.WarmupRequests >= requests {
		errs = append(errs, fmt.Errorf("serve: warmup %d >= requests %d", c.WarmupRequests, requests))
	}
	if !(c.SLATargetMs >= 0) || math.IsInf(c.SLATargetMs, 1) {
		errs = append(errs, fmt.Errorf("serve: SLA target %g ms (need finite >= 0)", c.SLATargetMs))
	}
	return errors.Join(errs...)
}
