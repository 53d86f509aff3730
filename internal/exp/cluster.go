package exp

// The cluster experiment family (clu1–clu3) lifts the evaluation from one
// node to the sharded fleet the paper's title problem lives at: per-node
// service costs come from the timing simulator (memoized engine runs),
// the cluster tier is internal/cluster's deterministic discrete-event
// simulation of sharding, router fan-out, and hot-row replication.

import (
	"fmt"

	"dlrmsim/internal/cluster"
	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

func init() {
	register(Experiment{ID: "clu1", Title: "Cluster sharding: nodes × policy (table-wise vs row-range)", Run: runClu1})
	register(Experiment{ID: "clu2", Title: "Cluster hot-row replication: memory vs tail latency", Run: runClu2})
	register(Experiment{ID: "clu3", Title: "Cluster-level scheme comparison (per-node design points)", Run: runClu3})
}

// cluQueries keeps the cluster sweeps fast at every scale; the discrete-
// event sim is O(queries × lookups).
const cluQueries = 1200

// clusterTiming derives the per-node service model for one scheme from a
// (memoized) engine run.
func clusterTiming(x *Context, model dlrm.Config, h trace.Hotness, scheme core.Scheme, cores int) (cluster.Timing, error) {
	rep, err := x.Run(core.Options{Model: model, Hotness: h, Scheme: scheme, Cores: cores})
	if err != nil {
		return cluster.Timing{}, err
	}
	return cluster.TimingFromReport(rep, platform.CascadeLake()), nil
}

// cluConfig assembles the shared simulation config: the offered load is
// sized from the plan's cold-path work estimate so it stays fixed across
// a replication sweep.
func cluConfig(x *Context, plan *cluster.Plan, h trace.Hotness, tm cluster.Timing, servers int, util float64) cluster.Config {
	return cluster.Config{
		Plan:            plan,
		Hotness:         h,
		SamplesPerQuery: x.Cfg.BatchSize,
		Timing:          tm,
		Net:             cluster.DefaultNetwork(),
		ServersPerNode:  servers,
		MeanArrivalMs:   cluster.ArrivalForUtilization(plan, tm, x.Cfg.BatchSize, servers, util),
		JitterFrac:      0.08,
		Queries:         cluQueries,
		Seed:            x.Cfg.Seed,
	}
}

// runClu1 sweeps cluster size × sharding policy at fixed per-node
// utilization (weak scaling): table-wise sharding bounds fan-out by the
// table count but is lumpy in memory and load; row-range sharding
// balances memory to the row but fans every query out to all nodes.
func runClu1(x *Context) (*Table, error) {
	t := &Table{
		ID: "clu1", Title: "Sharding policy sweep (rm2_1, Medium Hot, baseline nodes)",
		Headers: []string{"nodes", "policy", "shard MB/node", "arrival (ms)", "p50 (ms)", "p95 (ms)", "fan-out", "imbalance", "util"},
	}
	model := x.Cfg.model(dlrm.RM2Small())
	cores := x.Cfg.multiCores(platform.CascadeLake())
	tm, err := clusterTiming(x, model, trace.MediumHot, core.Baseline, cores)
	if err != nil {
		return nil, err
	}
	for _, nodes := range []int{2, 4, 8, 16} {
		for _, policy := range cluster.AllPolicies {
			plan, err := cluster.NewPlan(model, nodes, policy, 0, x.Cfg.Seed)
			if err != nil {
				return nil, err
			}
			cfg := cluConfig(x, plan, trace.MediumHot, tm, cores, 0.55)
			res, err := cluster.Simulate(cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprint(nodes), policy.String(), f1(float64(plan.MaxShardBytes())/1e6),
				f3(cfg.MeanArrivalMs), f3(res.P50), f3(res.P95),
				f2(res.MeanFanout), f2(res.Imbalance), pct(res.Utilization))
		}
	}
	t.AddNote("weak scaling: arrival sized for ~55%% utilization per node; table-wise fan-out is capped by the table count, row-range spreads memory evenly but touches every node")
	return t, nil
}

// runClu2 sweeps the hot-row replication fraction per hotness class: the
// BagPipe-style lever — replicating the top-k hottest rows on every node
// short-circuits the fan-out for skewed traffic at a measured memory
// cost. The offered load is fixed per hotness class across the sweep.
func runClu2(x *Context) (*Table, error) {
	t := &Table{
		ID: "clu2", Title: "Hot-row replication sweep (rm2_1, row-range, 8 nodes)",
		Headers: []string{"hotness", "replicate", "replica MB/node", "local %", "fan-out", "p50 (ms)", "p95 (ms)"},
	}
	model := x.Cfg.model(dlrm.RM2Small())
	cores := x.Cfg.multiCores(platform.CascadeLake())
	fractions := []float64{0, 0.001, 0.01, 0.05, 0.2}
	for _, h := range trace.ProductionHotness {
		tm, err := clusterTiming(x, model, h, core.Baseline, cores)
		if err != nil {
			return nil, err
		}
		plan, err := cluster.NewPlan(model, 8, cluster.RowRange, 0, x.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		points, err := cluster.SweepReplication(cluConfig(x, plan, h, tm, cores, 0.55), fractions)
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			t.AddRow(h.String(), fmt.Sprintf("%.3f", p.Fraction),
				f2(float64(p.Result.ReplicaBytesPerNode)/1e6), pct(p.Result.LocalFraction),
				f2(p.Result.MeanFanout), f3(p.Result.P50), f3(p.Result.P95))
		}
	}
	t.AddNote("replicating the top-k Zipf ranks serves High-hot traffic almost entirely from local replicas: p95 falls monotonically with the fraction while replica memory grows linearly; near-uniform Low-hot traffic gains little")
	return t, nil
}

// runClu3 compares the paper's design points at cluster scale: each
// scheme's single-node report sets the per-node service model, every
// scheme faces the identical offered load (sized from the baseline), and
// the cluster p95 shows how much of the node-level win survives the
// network and fan-out.
func runClu3(x *Context) (*Table, error) {
	t := &Table{
		ID: "clu3", Title: "Design points at cluster scale (rm2_1, Low Hot, 8 nodes, row-range, 1% replication)",
		Headers: []string{"design", "cold µs/lookup", "dense (ms)", "p95 (ms)", "cluster speedup"},
	}
	model := x.Cfg.model(dlrm.RM2Small())
	cores := x.Cfg.multiCores(platform.CascadeLake())
	schemes := []core.Scheme{core.Baseline, core.SWPF, core.MPHT, core.Integrated}
	cells := make([]core.Options, len(schemes))
	for i, s := range schemes {
		cells[i] = core.Options{Model: model, Hotness: trace.LowHot, Scheme: s, Cores: cores}
	}
	reps, err := x.RunMany(cells)
	if err != nil {
		return nil, err
	}
	plan, err := cluster.NewPlan(model, 8, cluster.RowRange, 0.01, x.Cfg.Seed)
	if err != nil {
		return nil, err
	}
	baseTiming := cluster.TimingFromReport(reps[0], platform.CascadeLake())
	arrival := cluster.ArrivalForUtilization(plan, baseTiming, x.Cfg.BatchSize, cores, 0.55)
	var baseP95 float64
	for i, s := range schemes {
		tm := cluster.TimingFromReport(reps[i], platform.CascadeLake())
		cfg := cluConfig(x, plan, trace.LowHot, tm, cores, 0.55)
		cfg.MeanArrivalMs = arrival // identical offered load for every scheme
		res, err := cluster.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			baseP95 = res.P95
		}
		speed := 0.0
		if res.P95 > 0 {
			speed = baseP95 / res.P95
		}
		t.AddRow(s.String(), f2(tm.ColdLookupUs), f3(tm.DenseMs), f3(res.P95), spd(speed))
	}
	t.AddNote("per-node scheme wins carry to the cluster tier attenuated by fixed network hops and join overheads — the faster the node, the larger the share of p95 the network owns")
	return t, nil
}
