package hetsched

import (
	"errors"
	"fmt"

	"dlrmsim/internal/check"
	"dlrmsim/internal/serve"
)

// Validate reports every problem with the config at once (collect-all,
// like the cluster and trace tiers): graph structure, per-device specs,
// policy range, and the stream parameters. Zero-valued fields that have
// defaults (Requests, WarmupRequests, Seed) are not errors.
func (c Config) Validate() error {
	var errs []error
	if err := c.Graph.Validate(); err != nil {
		errs = append(errs, err)
	}
	if len(c.Devices) == 0 {
		errs = append(errs, fmt.Errorf("hetsched: fleet has no devices"))
	}
	for i, d := range c.Devices {
		if err := d.validate(i, len(c.Devices)); err != nil {
			errs = append(errs, err)
		}
	}
	// Every kind present in the graph must have at least one capable
	// device, or requests can never complete. Presence is by phase count:
	// a zero-work phase still needs somewhere to run.
	kindCount := c.Graph.KindCounts()
	for k := PhaseKind(0); k < NumKinds; k++ {
		if kindCount[k] == 0 {
			continue
		}
		capable := false
		for _, d := range c.Devices {
			if d.can(k) {
				capable = true
				break
			}
		}
		if !capable {
			errs = append(errs, fmt.Errorf("hetsched: graph has %s work but no device can run it", k))
		}
	}
	if c.Policy >= numPolicies {
		errs = append(errs, fmt.Errorf("hetsched: invalid policy %d", c.Policy))
	}
	if !check.Positive(c.MeanArrivalMs) {
		errs = append(errs, fmt.Errorf("hetsched: mean arrival %g ms must be finite and positive", c.MeanArrivalMs))
	}
	if c.Requests < 0 {
		errs = append(errs, fmt.Errorf("hetsched: negative request count %d", c.Requests))
	}
	if c.WarmupRequests < -1 {
		errs = append(errs, fmt.Errorf("hetsched: warmup %d must be ≥ -1 (-1 means explicitly zero)", c.WarmupRequests))
	}
	if n, w := serve.Defaults(c.Requests, c.WarmupRequests); w > 0 && w >= n {
		errs = append(errs, fmt.Errorf("hetsched: warmup %d leaves no measured requests (of %d)", c.WarmupRequests, n))
	}
	if !(c.JitterFrac >= 0 && c.JitterFrac <= 2) { // NaN fails too
		errs = append(errs, fmt.Errorf("hetsched: jitter fraction %g outside [0, 2]", c.JitterFrac))
	}
	return errors.Join(errs...)
}
