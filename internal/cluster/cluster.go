// Package cluster models a sharded multi-node DLRM serving fleet — the
// "at-scale" layer above the single-node timing and queueing simulators.
// Production DLRM models (28–81 GB of embeddings, Table 2 at full scale)
// do not fit one node: the tables are sharded across N nodes, a router
// tier splits each query batch into per-shard sub-lookups, fans them out
// over the network, and joins the partial results, so every query pays a
// fan-out/straggler cost that single-node simulation never sees.
//
// The package is a deterministic discrete-event simulator of that tier:
//
//   - sharding policies (table-wise and row-range) with per-shard memory
//     accounting (Plan),
//   - a router that charges a configurable network hop (latency +
//     bandwidth) per sub-request and joins on the slowest shard,
//   - hot-row replication: the top-k hottest rows of every table (by the
//     trace hotness class's Zipf rank) are replicated onto every node, so
//     lookups to them short-circuit the fan-out and are served from the
//     query's home node's cache-resident replica, and
//   - per-node FCFS service reusing internal/serve's exported Queue, with
//     per-lookup service costs derived from a single-node engine report
//     (TimingFromReport), so the cluster-level effect of the paper's
//     schemes (SW-PF, MP-HT, Integrated) can be compared.
//
// All randomness is derived statelessly from Config.Seed via
// stats.SplitSeed, so results are bit-identical regardless of what else
// runs concurrently — the same contract the experiment runner's
// -workers determinism guarantee rests on.
package cluster

import (
	"dlrmsim/internal/core"
	"dlrmsim/internal/platform"
)

// Network is the router↔node hop model: a fixed per-message latency plus
// a bandwidth term proportional to the message size.
type Network struct {
	// LatencyMs is the one-way message latency (RPC + switch traversal).
	LatencyMs float64
	// BandwidthGBs is the per-link bandwidth in GB/s.
	BandwidthGBs float64
}

// DefaultNetwork returns a datacenter-Ethernet-class hop: 50 µs one-way
// latency, 10 GB/s per link.
func DefaultNetwork() Network {
	return Network{LatencyMs: 0.05, BandwidthGBs: 10}
}

// TransferMs returns the bandwidth term for a message of the given size.
func (n Network) TransferMs(bytes int64) float64 {
	if n.BandwidthGBs <= 0 {
		return 0
	}
	// GB/s = 1e6 bytes per ms.
	return float64(bytes) / (n.BandwidthGBs * 1e6)
}

// Timing is the per-node service model the router charges: an affine
// function of the sub-request's lookup counts, split by whether each
// looked-up row is shard-owned (DRAM-resident) or a replicated hot row
// (cache-resident).
type Timing struct {
	// ColdLookupUs is the per-lookup service time for shard-owned rows.
	ColdLookupUs float64
	// HotLookupUs is the per-lookup service time for replicated hot rows
	// (cache-resident on every node, so far cheaper than ColdLookupUs).
	HotLookupUs float64
	// SubRequestUs is the fixed per-sub-request overhead at a node
	// (dispatch, deserialize, result packing).
	SubRequestUs float64
	// DenseMs is the per-query dense-stage time (bottom MLP, interaction,
	// top MLP) charged at the router after the join.
	DenseMs float64
}

// TimingFromReport derives the cluster service model from a single-node
// engine report: the embedding stage amortizes over the batch's lookups
// (that is the work sharding distributes), the remaining batch latency is
// the dense part charged once per query at the router, and replicated hot
// rows are served at the platform's L2 latency instead of the report's
// average load latency (they are cache-resident by construction — that is
// what replication buys).
func TimingFromReport(rep core.Report, cpu platform.CPU) Timing {
	embMs := cpu.CyclesToMs(rep.EmbeddingStageCycles())
	if embMs > rep.BatchLatencyMs {
		embMs = rep.BatchLatencyMs
	}
	dense := rep.BatchLatencyMs - embMs
	if dense < 0 {
		dense = 0
	}
	cold := embMs * 1e3 / float64(rep.LookupsPerBatch)
	ratio := 1.0
	if rep.AvgLoadLatency > 0 {
		ratio = float64(cpu.Mem.L2.LatencyCyc) / rep.AvgLoadLatency
		if ratio > 1 {
			ratio = 1
		}
	}
	return Timing{
		ColdLookupUs: cold,
		HotLookupUs:  cold * ratio,
		SubRequestUs: 5,
		DenseMs:      dense,
	}
}

// QueryWorkMs estimates the mean node-side work one query generates under
// the plan (fan-out overheads plus every lookup at cold cost) — a sizing
// heuristic for choosing arrival rates. It deliberately ignores
// replication, so a replication sweep sized from it keeps the offered
// load fixed across fractions.
func QueryWorkMs(p *Plan, t Timing, samplesPerQuery int) float64 {
	lookups := samplesPerQuery * p.Model.LookupsPerSample * p.Model.Tables
	fanout := p.Nodes
	if p.Policy == TableWise && p.Model.Tables < fanout {
		fanout = p.Model.Tables
	}
	if lookups < fanout {
		fanout = lookups
	}
	return (t.SubRequestUs*float64(fanout) + t.ColdLookupUs*float64(lookups)) / 1e3
}

// ArrivalForUtilization returns the mean query inter-arrival time that
// loads the cluster to the given utilization under the plan's cold-path
// work estimate.
func ArrivalForUtilization(p *Plan, t Timing, samplesPerQuery, serversPerNode int, util float64) float64 {
	if util <= 0 {
		util = 0.5
	}
	if serversPerNode < 1 {
		serversPerNode = 1
	}
	return QueryWorkMs(p, t, samplesPerQuery) / (float64(p.Nodes*serversPerNode) * util)
}
