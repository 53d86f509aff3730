package cluster

import (
	"errors"
	"fmt"

	"dlrmsim/internal/check"
	"dlrmsim/internal/serve"
	"dlrmsim/internal/trace"
)

// Validate reports every violation in the cluster configuration at once
// (errors.Join), without mutating the config, so a user can fix every bad
// flag in one round trip. Simulate runs it before filling defaults.
// Zero-means-default fields (ServersPerNode, Queries, WarmupQueries) are
// accepted as zero.
func (c Config) Validate() error {
	var errs []error
	nodes := 0 // 0 skips the node-range checks when there is no plan
	if c.Plan == nil {
		errs = append(errs, fmt.Errorf("cluster: nil plan"))
	} else {
		nodes = c.Plan.Nodes
		if c.Plan.Nodes < 1 {
			errs = append(errs, fmt.Errorf("cluster: %d nodes", c.Plan.Nodes))
		}
		if err := c.Plan.Model.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if c.Hotness < trace.OneItem || c.Hotness > trace.RandomAccess {
		errs = append(errs, fmt.Errorf("cluster: unknown hotness class %d", int(c.Hotness)))
	}
	if c.SamplesPerQuery < 1 {
		errs = append(errs, fmt.Errorf("cluster: %d samples per query", c.SamplesPerQuery))
	}
	if c.Open == nil && !check.Positive(c.MeanArrivalMs) {
		errs = append(errs, fmt.Errorf("cluster: mean arrival %g ms (need finite > 0)", c.MeanArrivalMs))
	}
	if err := c.Timing.Validate(); err != nil {
		errs = append(errs, err)
	}
	if !check.NonNeg(c.Net.LatencyMs) || !check.NonNeg(c.Net.BandwidthGBs) {
		errs = append(errs, fmt.Errorf("cluster: non-finite or negative network parameters (latency %g ms, bandwidth %g GB/s)",
			c.Net.LatencyMs, c.Net.BandwidthGBs))
	}
	if c.ServersPerNode < 0 {
		errs = append(errs, fmt.Errorf("cluster: %d servers per node", c.ServersPerNode))
	}
	if !check.NonNeg(c.JitterFrac) {
		errs = append(errs, fmt.Errorf("cluster: jitter fraction %g (need finite >= 0)", c.JitterFrac))
	}
	if c.Queries < 0 {
		errs = append(errs, fmt.Errorf("cluster: %d queries", c.Queries))
	}
	if c.WarmupQueries < -1 {
		errs = append(errs, fmt.Errorf("cluster: warmup %d (use -1 for explicit zero)", c.WarmupQueries))
	}
	if c.Open != nil {
		if c.MeanArrivalMs != 0 || c.Queries != 0 || c.WarmupQueries != 0 {
			errs = append(errs, fmt.Errorf("cluster: closed-loop load knobs (mean arrival %g, queries %d, warmup %d) are unused with an open-loop config",
				c.MeanArrivalMs, c.Queries, c.WarmupQueries))
		}
		errs = append(errs, c.Open.validateErrs(nodes)...)
	} else {
		if n, w := serve.Defaults(c.Queries, c.WarmupQueries); w >= n && n > 0 {
			errs = append(errs, fmt.Errorf("cluster: warmup %d >= queries %d", c.WarmupQueries, n))
		}
	}
	errs = append(errs, c.Faults.validateErrs()...)
	errs = append(errs, c.Mitigation.validateErrs()...)
	errs = append(errs, c.Chaos.validateErrs(nodes)...)
	return errors.Join(errs...)
}

// Validate reports every violation in the per-node service model.
func (t Timing) Validate() error {
	var errs []error
	if !check.Positive(t.ColdLookupUs) {
		errs = append(errs, fmt.Errorf("cluster: cold lookup cost %g µs (need finite > 0)", t.ColdLookupUs))
	}
	if !check.NonNeg(t.HotLookupUs) {
		errs = append(errs, fmt.Errorf("cluster: hot lookup cost %g µs (need finite >= 0)", t.HotLookupUs))
	}
	if !check.NonNeg(t.SubRequestUs) {
		errs = append(errs, fmt.Errorf("cluster: sub-request overhead %g µs (need finite >= 0)", t.SubRequestUs))
	}
	if !check.NonNeg(t.DenseMs) {
		errs = append(errs, fmt.Errorf("cluster: dense-stage time %g ms (need finite >= 0)", t.DenseMs))
	}
	return errors.Join(errs...)
}
