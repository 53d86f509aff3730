// Cluster quickstart: shard a DLRM model across a small fleet, derive
// per-node service costs from the single-node timing simulator, and
// measure what hot-row replication buys — the memory/tail-latency trade
// the at-scale deployment actually tunes.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"dlrmsim/internal/cluster"
	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

func main() {
	const (
		scale   = 10
		batch   = 8
		nodes   = 8
		servers = 2
		seed    = 1
	)
	model := dlrm.RM2Small().Scaled(scale)
	cpu := platform.CascadeLake()

	// 1. One single-node engine run sets the per-lookup service model.
	rep, err := core.Run(core.Options{
		Model: model, Hotness: trace.HighHot, Scheme: core.Baseline,
		BatchSize: batch, Cores: cpu.Cores, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	tm := cluster.TimingFromReport(rep, cpu)
	fmt.Printf("%s sharded over %d nodes: %.3f µs/cold lookup, %.3f µs when cache-resident\n\n",
		model.Name, nodes, tm.ColdLookupUs, tm.HotLookupUs)

	// 2. Row-range sharding spreads the tables evenly; every query fans
	// out to all nodes until replication short-circuits the hot rows.
	plan, err := cluster.NewPlan(model, nodes, cluster.RowRange, 0, seed)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cluster.Config{
		Plan:            plan,
		Hotness:         trace.HighHot,
		SamplesPerQuery: batch,
		Timing:          tm,
		Net:             cluster.DefaultNetwork(),
		ServersPerNode:  servers,
		MeanArrivalMs:   cluster.ArrivalForUtilization(plan, tm, batch, servers, 0.55),
		JitterFrac:      0.08,
		Queries:         3000,
		Seed:            seed,
	}

	// 3. Sweep the replication fraction: each point replicates the top-k
	// hottest Zipf ranks of every table onto every node.
	points, err := cluster.SweepReplication(cfg, []float64{0, 0.001, 0.01, 0.05})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %-14s %-8s %9s %9s\n", "replicate", "replica MB/nd", "local %", "p95 (ms)", "fan-out")
	for _, p := range points {
		fmt.Printf("%-10.3f %-14.2f %-8.1f %9.3f %9.2f\n",
			p.Fraction, float64(p.Result.ReplicaBytesPerNode)/1e6,
			100*p.Result.LocalFraction, p.Result.P95, p.Result.MeanFanout)
	}
	base, best := points[0].Result, points[len(points)-1].Result
	fmt.Printf("\nreplicating %.1f MB/node of hot rows cuts p95 from %.3f to %.3f ms (%.2fx)\n",
		float64(best.ReplicaBytesPerNode)/1e6, base.P95, best.P95, base.P95/best.P95)
}
