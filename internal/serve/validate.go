package serve

import (
	"errors"
	"fmt"
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
	if c.MeanArrivalMs <= 0 || c.ServiceMs <= 0 {
		errs = append(errs, fmt.Errorf("serve: non-positive times (arrival %g ms, service %g ms)",
			c.MeanArrivalMs, c.ServiceMs))
	}
	if c.JitterFrac < 0 {
		errs = append(errs, fmt.Errorf("serve: negative jitter fraction %g", c.JitterFrac))
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
	if c.SLATargetMs < 0 {
		errs = append(errs, fmt.Errorf("serve: negative SLA target %g ms", c.SLATargetMs))
	}
	return errors.Join(errs...)
}
