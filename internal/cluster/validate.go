package cluster

import (
	"errors"
	"fmt"
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
	if c.SamplesPerQuery < 1 {
		errs = append(errs, fmt.Errorf("cluster: %d samples per query", c.SamplesPerQuery))
	}
	if c.Open == nil && c.MeanArrivalMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: non-positive mean arrival %g ms", c.MeanArrivalMs))
	}
	if err := c.Timing.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.Net.LatencyMs < 0 || c.Net.BandwidthGBs < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative network parameters (latency %g ms, bandwidth %g GB/s)",
			c.Net.LatencyMs, c.Net.BandwidthGBs))
	}
	if c.ServersPerNode < 0 {
		errs = append(errs, fmt.Errorf("cluster: %d servers per node", c.ServersPerNode))
	}
	if c.JitterFrac < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative jitter fraction %g", c.JitterFrac))
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
		queries := c.Queries
		if queries == 0 {
			queries = 2000
		}
		if c.WarmupQueries >= queries && queries > 0 {
			errs = append(errs, fmt.Errorf("cluster: warmup %d >= queries %d", c.WarmupQueries, queries))
		}
	}
	if err := c.Faults.validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.Mitigation.validate(); err != nil {
		errs = append(errs, err)
	}
	errs = append(errs, c.Chaos.validateErrs(nodes)...)
	return errors.Join(errs...)
}

// Validate reports every violation in the per-node service model.
func (t Timing) Validate() error {
	var errs []error
	if t.ColdLookupUs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: non-positive cold lookup cost %g µs", t.ColdLookupUs))
	}
	if t.HotLookupUs < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative hot lookup cost %g µs", t.HotLookupUs))
	}
	if t.SubRequestUs < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative sub-request overhead %g µs", t.SubRequestUs))
	}
	if t.DenseMs < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative dense-stage time %g ms", t.DenseMs))
	}
	return errors.Join(errs...)
}
