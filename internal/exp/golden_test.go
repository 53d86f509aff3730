package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"dlrmsim/internal/cluster"
	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/hetsched"
	"dlrmsim/internal/pin"
	"dlrmsim/internal/serve"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// golden pins the reproduction's headline quantities at a small fixed
// configuration (scale 20, batch 8, 2 cores, seed 1). Any refactor that
// silently changes simulator arithmetic — engine, memory hierarchy, trace
// synthesis, serving — trips this file even when the coarser shape tests
// still pass. Regenerate it, and every value file the pin tests keep,
// deliberately with:
//
//	make golden-update
type golden struct {
	// IntegratedSpeedup maps "model|hotness" to the Integrated scheme's
	// end-to-end speedup over baseline (multi-core).
	IntegratedSpeedup map[string]float64 `json:"integrated_speedup"`
	// BatchingP99Ms is the dynamic batcher's p99 query latency under the
	// fixed reference load.
	BatchingP99Ms float64 `json:"batching_p99_ms"`
	// BatchingMeanBatch is the batcher's mean formed batch size there.
	BatchingMeanBatch float64 `json:"batching_mean_batch"`
	// ClusterP95Ms maps "hotness|f=frac" to the cluster tier's p95 under
	// a fixed synthetic service model (goldenClusterConfig), pinning the
	// sharding/router/replication arithmetic independently of the engine.
	ClusterP95Ms map[string]float64 `json:"cluster_p95_ms"`
	// ClusterFaultP99Ms maps a mitigation policy name to the cluster p99
	// under the fixed golden fault model (goldenFaults), pinning the fault
	// injection and router mitigation arithmetic.
	ClusterFaultP99Ms map[string]float64 `json:"cluster_fault_p99_ms"`
	// ClusterFaultCompleteness maps the same policies to the mean join
	// completeness — 1 everywhere except the degraded-join policy.
	ClusterFaultCompleteness map[string]float64 `json:"cluster_fault_completeness"`
	// ClusterOpen* pin the live-traffic tier under the fixed golden
	// overload (goldenOpenConfig): bursty MMPP arrivals 15% past fleet
	// capacity over a revisiting population, keyed by serving mode
	// ("noshed", "shed", "autoscale"). Together they pin the arrival
	// stream, population, admission, and autoscaler arithmetic.
	ClusterOpenGoodputQPS       map[string]float64 `json:"cluster_open_goodput_qps"`
	ClusterOpenShedRate         map[string]float64 `json:"cluster_open_shed_rate"`
	ClusterOpenViolationMinutes map[string]float64 `json:"cluster_open_violation_minutes"`
	ClusterOpenMeanNodes        map[string]float64 `json:"cluster_open_mean_nodes"`
	// ClusterChaos* pin the correlated-failure tier under the fixed golden
	// chaos scenario (goldenChaosConfig — the clu9 retry-storm shape at the
	// synthetic timing): a half-fleet domain outage at 0.72× capacity with
	// two timeout retries, keyed by mitigation mode ("static", "budget",
	// "budget+breaker"). PostFaultRatio is goodput over offered after the
	// schedule clears; RecoverMs is TimeToRecoverMs, whose −1 is the
	// metastable never-recovered signature the static mode must show.
	ClusterChaosPostFaultRatio map[string]float64 `json:"cluster_chaos_post_fault_ratio"`
	ClusterChaosRecoverMs      map[string]float64 `json:"cluster_chaos_recover_ms"`
	ClusterChaosRetryAmp       map[string]float64 `json:"cluster_chaos_retry_amp"`
	ClusterChaosBreakerMin     map[string]float64 `json:"cluster_chaos_breaker_min"`
	// HetP95Ms maps "mix|policy" to the heterogeneous scheduler's p95 over
	// the fixed synthetic phase graph (goldenHetGraph — no engine
	// dependence), pinning the event loop, placement, SMT contention, and
	// batching arithmetic. The pinned mixes are the three policy-winning
	// regimes: smt2 (affinity = MP-HT), biglittle (EFT), hetero (steal).
	HetP95Ms map[string]float64 `json:"het_p95_ms"`
	// HetSMT*OverlapMs pin the SMT-pair overlap accounting for the smt2
	// affinity cell: cross-kind overlap is the colocation working, and
	// same-kind overlap must be exactly zero (the scheme never pays the
	// like-phase contention penalty).
	HetSMTCrossOverlapMs float64 `json:"het_smt_cross_overlap_ms"`
	HetSMTSameOverlapMs  float64 `json:"het_smt_same_overlap_ms"`
	// HetBatchP95Ms maps "u=util|b=maxbatch|h=holdµs" to the cpu2gpu1
	// fleet's p95 under the fixed batching-economics sweep, pinning launch
	// amortization and the hold-window arithmetic.
	HetBatchP95Ms map[string]float64 `json:"het_batch_p95_ms"`
}

// goldenClusterConfig is the fixed reference cluster for the pinned p95
// quantities: 4 nodes, row-range sharding, explicit timing (no engine
// dependence), at the tiny model scale.
func goldenClusterConfig(t *testing.T, model dlrm.Config, h trace.Hotness, frac float64) cluster.Config {
	t.Helper()
	plan, err := cluster.NewPlan(model, 4, cluster.RowRange, frac, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cluster.Config{
		Plan:            plan,
		Hotness:         h,
		SamplesPerQuery: 8,
		Timing:          cluster.Timing{ColdLookupUs: 2, HotLookupUs: 0.1, SubRequestUs: 5, DenseMs: 0.05},
		Net:             cluster.DefaultNetwork(),
		ServersPerNode:  2,
		MeanArrivalMs:   0.15,
		JitterFrac:      0.08,
		Queries:         1500,
		Seed:            1,
	}
}

// goldenFaults is the fixed fault model for the pinned robustness
// quantities: rare-but-severe slowdown episodes, occasional outages, 2%
// transit loss — the regime where mitigation can route around trouble.
func goldenFaults() cluster.FaultModel {
	return cluster.FaultModel{
		SlowdownEveryMs: 200,
		SlowdownMeanMs:  10,
		SlowdownFactor:  6,
		DownEveryMs:     300,
		DownMeanMs:      4,
		DropProb:        0.02,
	}
}

// goldenPolicies are the pinned mitigation policies, with deadlines
// roughly 2× the golden cluster's clean p95 (~0.25 ms). The degraded
// policy is the fail-fast archetype — no standby retry, so blown
// deadlines actually surface as abandoned lookups.
func goldenPolicies() map[string]cluster.Mitigation {
	return map[string]cluster.Mitigation{
		"naive":    {},
		"hedge":    {HedgeDelayMs: 0.5},
		"retry":    {TimeoutMs: 0.5, MaxRetries: 3},
		"degraded": {TimeoutMs: 0.3, DegradedJoin: true},
	}
}

// goldenOpenConfig is the fixed open-loop reference: the golden cluster
// at High Hot with replication off (so the cold-path capacity estimate is
// exact), driven 15% past fleet capacity by bursty MMPP arrivals over a
// revisiting population. The mode selects the serving posture: "noshed"
// admits everything, "shed" bounds queues at a backlog budget, and
// "autoscale" starts at half the fleet and grows under the same budget.
func goldenOpenConfig(t *testing.T, model dlrm.Config, mode string) cluster.Config {
	t.Helper()
	cfg := goldenClusterConfig(t, model, trace.HighHot, 0)
	cfg.MeanArrivalMs = 0
	cfg.Queries = 0
	arrival := cluster.ArrivalForUtilization(cfg.Plan, cfg.Timing, cfg.SamplesPerQuery, cfg.ServersPerNode, 1.15)
	duration := 1200 * arrival
	const budget = 0.25
	open := &cluster.OpenLoop{
		Arrivals: traffic.Config{
			Model:        traffic.MMPP,
			RatePerMs:    1 / arrival,
			BurstFactor:  2,
			BurstEveryMs: 150 * arrival,
			BurstMeanMs:  15 * arrival,
		},
		Population: &traffic.Population{Users: 100000, RevisitProb: 0.6, Affinity: 0.5},
		DurationMs: duration,
		SLAMs:      0.5,
	}
	switch mode {
	case "noshed":
	case "shed":
		open.Admission = cluster.Admission{Policy: cluster.ShedOverBudget, QueueBudgetMs: budget}
	case "autoscale":
		open.Admission = cluster.Admission{Policy: cluster.ShedOverBudget, QueueBudgetMs: budget}
		open.StartNodes = 2
		open.Autoscale = &cluster.Autoscaler{
			IntervalMs:    duration / 96,
			UpBacklogMs:   budget / 8,
			DownBacklogMs: budget / 64,
			ProvisionMs:   duration / 96,
			MinNodes:      2,
			MaxNodes:      4,
		}
	default:
		t.Fatalf("unknown open-loop golden mode %q", mode)
	}
	cfg.Open = open
	return cfg
}

// chaosGoldenModes are the pinned mitigation postures for the chaos
// scenario, mirroring the clu9 experiment's chaosMitigations.
var chaosGoldenModes = []string{"static", "budget", "budget+breaker"}

// goldenChaosConfig is the fixed retry-storm reference: the golden
// cluster at High Hot with replication off, split into two failure
// domains, driven at 0.72× capacity while domain 1 — half the fleet —
// is down for 100 arrival periods. Every posture carries two timeout
// retries; "budget" caps conditional copies at 10% of primaries and
// "budget+breaker" adds per-node circuit breakers. The adaptive epoch
// is 8 arrival periods — the default (4 timeouts) is far coarser than
// the outage itself at the golden timing's microsecond service times.
func goldenChaosConfig(t *testing.T, model dlrm.Config, mode string) cluster.Config {
	t.Helper()
	cfg := goldenClusterConfig(t, model, trace.HighHot, 0)
	cfg.MeanArrivalMs = 0
	cfg.Queries = 0
	arrival := cluster.ArrivalForUtilization(cfg.Plan, cfg.Timing, cfg.SamplesPerQuery, cfg.ServersPerNode, 0.72)
	mit := cluster.Mitigation{TimeoutMs: 0.5, MaxRetries: 2}
	switch mode {
	case "static":
	case "budget":
		mit.RetryBudget = 0.1
		mit.AdaptEpochMs = 8 * arrival
	case "budget+breaker":
		mit.RetryBudget = 0.1
		mit.AdaptEpochMs = 8 * arrival
		mit.BreakerTripRate = 0.5
		mit.BreakerMinSamples = 4
	default:
		t.Fatalf("unknown chaos golden mode %q", mode)
	}
	cfg.Mitigation = mit
	cfg.Chaos = cluster.ChaosSchedule{
		Domains: 2,
		Events: []cluster.ChaosEvent{
			{Kind: cluster.DomainOutage, Domain: 1, AtMs: 200 * arrival, ForMs: 100 * arrival},
		},
	}
	cfg.Open = &cluster.OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: 1 / arrival},
		DurationMs: 2500 * arrival,
		SLAMs:      1,
	}
	return cfg
}

// goldenHetGraph is the fixed synthetic phase graph for the pinned
// heterogeneous-scheduling quantities — 40 µs of gather, 30 µs of dense
// work. Like goldenClusterConfig's explicit Timing, it has no engine
// dependence, so these cells pin the scheduler arithmetic alone.
func goldenHetGraph() hetsched.Graph { return hetsched.DLRMGraph(40, 30) }

// goldenHetConfig is one policy-sweep cell: the named mix at 75% target
// utilization under jitter 0.25 — the same shape the het1 experiment runs,
// minus the calibrated graph.
func goldenHetConfig(t *testing.T, mix string, pol hetsched.Policy) hetsched.Config {
	t.Helper()
	devs, err := hetsched.NewMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenHetGraph()
	return hetsched.Config{
		Graph:         g,
		Devices:       devs,
		Policy:        pol,
		MeanArrivalMs: hetsched.ArrivalForUtilization(g, devs, 0.75),
		Requests:      1500,
		JitterFrac:    0.25,
		Seed:          1,
	}
}

// goldenHetBatchConfig is one batching-economics cell: the cpu2gpu1 fleet
// with the GPU's batch limit and hold window overridden, under arrivals
// sized from the fully-amortizing (batch-64) fleet so every cell at one
// util faces identical load. No jitter — the batching arithmetic is the
// quantity under pin.
func goldenHetBatchConfig(t *testing.T, maxBatch int, holdUs, util float64) hetsched.Config {
	t.Helper()
	ref, err := hetGPUFleet(64, 40)
	if err != nil {
		t.Fatal(err)
	}
	devs, err := hetGPUFleet(maxBatch, holdUs)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenHetGraph()
	return hetsched.Config{
		Graph:         g,
		Devices:       devs,
		Policy:        hetsched.Affinity,
		MeanArrivalMs: hetsched.ArrivalForUtilization(g, ref, util),
		Requests:      1500,
		Seed:          1,
	}
}

// goldenBatchingConfig is the fixed reference load for the serving-layer
// quantities.
func goldenBatchingConfig() serve.BatchingConfig {
	return serve.BatchingConfig{
		Cores:             4,
		MeanArrivalMs:     0.5,
		MaxBatch:          64,
		MaxWaitMs:         5,
		ServiceBaseMs:     1,
		ServicePerQueryMs: 0.05,
		Queries:           20000,
		Seed:              1,
	}
}

func computeGolden(t *testing.T) golden {
	t.Helper()
	g := golden{IntegratedSpeedup: map[string]float64{}}
	x := tinyContext().WithParallelism(context.Background(), 0)
	var keys []string
	var cells []core.Options
	for _, base := range dlrm.Zoo() {
		model := x.Cfg.model(base)
		for _, h := range trace.ProductionHotness {
			keys = append(keys, base.Name+"|"+h.String())
			cells = append(cells,
				core.Options{Model: model, Hotness: h, Scheme: core.Baseline, Cores: 2},
				core.Options{Model: model, Hotness: h, Scheme: core.Integrated, Cores: 2})
		}
	}
	reps, err := x.RunMany(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		g.IntegratedSpeedup[k] = reps[2*i+1].Speedup(reps[2*i])
	}
	res, err := serve.SimulateBatching(goldenBatchingConfig())
	if err != nil {
		t.Fatal(err)
	}
	g.BatchingP99Ms = res.P99
	g.BatchingMeanBatch = res.MeanBatchSize
	g.ClusterP95Ms = map[string]float64{}
	cmodel := x.Cfg.model(dlrm.RM2Small())
	for _, h := range []trace.Hotness{trace.HighHot, trace.LowHot} {
		for _, frac := range []float64{0, 0.05} {
			cres, err := cluster.Simulate(goldenClusterConfig(t, cmodel, h, frac))
			if err != nil {
				t.Fatal(err)
			}
			g.ClusterP95Ms[fmt.Sprintf("%s|f=%.2f", h, frac)] = cres.P95
		}
	}
	g.ClusterFaultP99Ms = map[string]float64{}
	g.ClusterFaultCompleteness = map[string]float64{}
	for name, mit := range goldenPolicies() {
		cfg := goldenClusterConfig(t, cmodel, trace.HighHot, 0.05)
		cfg.Faults = goldenFaults()
		cfg.Mitigation = mit
		cres, err := cluster.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.ClusterFaultP99Ms[name] = cres.P99
		g.ClusterFaultCompleteness[name] = cres.Completeness
	}
	g.ClusterOpenGoodputQPS = map[string]float64{}
	g.ClusterOpenShedRate = map[string]float64{}
	g.ClusterOpenViolationMinutes = map[string]float64{}
	g.ClusterOpenMeanNodes = map[string]float64{}
	for _, mode := range []string{"noshed", "shed", "autoscale"} {
		cres, err := cluster.Simulate(goldenOpenConfig(t, cmodel, mode))
		if err != nil {
			t.Fatal(err)
		}
		g.ClusterOpenGoodputQPS[mode] = cres.Goodput
		g.ClusterOpenShedRate[mode] = cres.ShedRate
		g.ClusterOpenViolationMinutes[mode] = cres.SLAViolationMinutes
		g.ClusterOpenMeanNodes[mode] = cres.MeanActiveNodes
	}
	g.ClusterChaosPostFaultRatio = map[string]float64{}
	g.ClusterChaosRecoverMs = map[string]float64{}
	g.ClusterChaosRetryAmp = map[string]float64{}
	g.ClusterChaosBreakerMin = map[string]float64{}
	for _, mode := range chaosGoldenModes {
		cres, err := cluster.Simulate(goldenChaosConfig(t, cmodel, mode))
		if err != nil {
			t.Fatal(err)
		}
		ratio := 0.0
		if cres.PostFaultOfferedQPS > 0 {
			ratio = cres.PostFaultGoodput / cres.PostFaultOfferedQPS
		}
		g.ClusterChaosPostFaultRatio[mode] = ratio
		g.ClusterChaosRecoverMs[mode] = cres.TimeToRecoverMs
		g.ClusterChaosRetryAmp[mode] = cres.RetryAmplification
		g.ClusterChaosBreakerMin[mode] = cres.BreakerOpenMinutes
	}
	g.HetP95Ms = map[string]float64{}
	for _, mix := range []string{"smt2", "biglittle", "hetero"} {
		for _, pol := range hetsched.AllPolicies {
			hres, err := hetsched.Simulate(goldenHetConfig(t, mix, pol))
			if err != nil {
				t.Fatal(err)
			}
			g.HetP95Ms[mix+"|"+pol.String()] = hres.P95
			if mix == "smt2" && pol == hetsched.Affinity {
				g.HetSMTCrossOverlapMs = hres.CrossKindOverlapMs
				g.HetSMTSameOverlapMs = hres.SameKindOverlapMs
			}
		}
	}
	g.HetBatchP95Ms = map[string]float64{}
	for _, util := range []float64{0.35, 0.85} {
		for _, pt := range []struct {
			b int
			h float64
		}{{1, 0}, {64, 40}, {64, 0}} {
			hres, err := hetsched.Simulate(goldenHetBatchConfig(t, pt.b, pt.h, util))
			if err != nil {
				t.Fatal(err)
			}
			g.HetBatchP95Ms[fmt.Sprintf("u=%.2f|b=%d|h=%g", util, pt.b, pt.h)] = hres.P95
		}
	}
	return g
}

const goldenPath = "testdata/golden.json"

// TestGoldenRegression recomputes the pinned quantities at the golden
// seed and compares every one with testdata/golden.json within 1e-9,
// naming each moved, new or vanished quantity; -update rewrites the file.
func TestGoldenRegression(t *testing.T) {
	got := computeGolden(t)
	// The robustness subsystem's acceptance criterion, checked against the
	// freshly computed quantities so it holds in -update runs too: with
	// faults on, mitigation demonstrably improves the tail over the naive
	// router, and only degraded joins give up completeness.
	naiveP99 := got.ClusterFaultP99Ms["naive"]
	for _, policy := range []string{"hedge", "retry", "degraded"} {
		if p99 := got.ClusterFaultP99Ms[policy]; p99 >= naiveP99 {
			t.Errorf("%s policy p99 %.4f ms does not beat naive %.4f ms under golden faults", policy, p99, naiveP99)
		}
	}
	for policy, compl := range got.ClusterFaultCompleteness {
		if policy != "degraded" && compl != 1 {
			t.Errorf("%s policy lost data: completeness %g", policy, compl)
		}
	}
	if got.ClusterFaultCompleteness["degraded"] >= 1 {
		t.Error("degraded policy never abandoned a lookup under golden faults")
	}
	// The live-traffic tier's acceptance criterion, also checked fresh:
	// under the golden overload, admission control demonstrably reduces
	// SLA-violation minutes versus the no-shed baseline at a nonzero shed
	// rate, and the autoscaled fleet actually moves off its floor.
	noshedViol := got.ClusterOpenViolationMinutes["noshed"]
	if noshedViol == 0 {
		t.Error("no-shed baseline saw no SLA violation minutes under the golden overload")
	}
	if shedViol := got.ClusterOpenViolationMinutes["shed"]; shedViol >= noshedViol {
		t.Errorf("shedding does not reduce SLA violation minutes: shed %.1f vs noshed %.1f", shedViol, noshedViol)
	}
	if got.ClusterOpenShedRate["shed"] == 0 {
		t.Error("shed mode never shed an arrival under the golden overload")
	}
	if got.ClusterOpenShedRate["noshed"] != 0 {
		t.Errorf("no-shed mode shed %.3f of arrivals", got.ClusterOpenShedRate["noshed"])
	}
	if mean := got.ClusterOpenMeanNodes["autoscale"]; mean <= 2 || mean > 4 {
		t.Errorf("autoscaled fleet averaged %.2f nodes, want strictly inside (2, 4]", mean)
	}
	// The correlated-failure tier's acceptance criterion, checked fresh:
	// under the golden retry storm, the static router is metastable — its
	// post-fault goodput stays collapsed and it never recovers — while the
	// retry budget restores goodput and circuit breakers restore it
	// strictly faster, with the breaker demonstrably open along the way.
	if ratio := got.ClusterChaosPostFaultRatio["static"]; ratio > 0.7 {
		t.Errorf("static router's post-fault goodput ratio %.3f is not collapsed (want <= 0.7)", ratio)
	}
	if rec := got.ClusterChaosRecoverMs["static"]; rec != -1 {
		t.Errorf("static router recovered at %.3f ms under the golden retry storm; metastability requires never (-1)", rec)
	}
	budgetRec := got.ClusterChaosRecoverMs["budget"]
	breakerRec := got.ClusterChaosRecoverMs["budget+breaker"]
	if budgetRec < 0 {
		t.Error("retry budget never recovered under the golden retry storm")
	}
	if breakerRec < 0 || breakerRec >= budgetRec {
		t.Errorf("budget+breaker recovery %.3f ms is not strictly faster than budget-only %.3f ms", breakerRec, budgetRec)
	}
	if s, b := got.ClusterChaosRetryAmp["static"], got.ClusterChaosRetryAmp["budget"]; s <= b {
		t.Errorf("static retry amplification %.2f does not exceed budgeted %.2f", s, b)
	}
	if got.ClusterChaosBreakerMin["budget+breaker"] <= 0 {
		t.Error("breaker mode never opened a breaker under the golden retry storm")
	}
	for _, mode := range []string{"static", "budget"} {
		if v := got.ClusterChaosBreakerMin[mode]; v != 0 {
			t.Errorf("%s mode reports %.4g breaker-open node-minutes without breakers", mode, v)
		}
	}
	// The heterogeneous-scheduling subsystem's acceptance criterion,
	// checked fresh: each placement policy strictly wins one device-mix
	// regime, and the SMT pair under affinity reproduces the paper's MP-HT
	// colocation — the siblings overlap cross-kind only.
	for mix, winner := range map[string]string{"smt2": "affinity", "biglittle": "eft", "hetero": "steal"} {
		best := got.HetP95Ms[mix+"|"+winner]
		for _, pol := range hetsched.AllPolicies {
			if pol.String() == winner {
				continue
			}
			if other := got.HetP95Ms[mix+"|"+pol.String()]; other <= best {
				t.Errorf("%s does not win %s: p95 %.4f ms vs %s %.4f ms", winner, mix, best, pol, other)
			}
		}
	}
	if got.HetSMTSameOverlapMs != 0 {
		t.Errorf("MP-HT colocation paid same-kind SMT overlap: %.4f ms", got.HetSMTSameOverlapMs)
	}
	if got.HetSMTCrossOverlapMs <= 0 {
		t.Error("MP-HT colocation never overlapped the SMT siblings cross-kind")
	}
	// Batching economics, checked fresh: batch-of-1 drowns in per-launch
	// cost at both loads, and at low load the hold window is a pure
	// latency tax (hold 0 strictly beats hold 40).
	for _, u := range []string{"0.35", "0.85"} {
		solo, amortized := got.HetBatchP95Ms["u="+u+"|b=1|h=0"], got.HetBatchP95Ms["u="+u+"|b=64|h=40"]
		if solo <= amortized {
			t.Errorf("batch-of-1 p95 %.4f ms does not lose to batch-64 %.4f ms at util %s", solo, amortized, u)
		}
	}
	if nohold, hold := got.HetBatchP95Ms["u=0.35|b=64|h=0"], got.HetBatchP95Ms["u=0.35|b=64|h=40"]; nohold >= hold {
		t.Errorf("hold window is free at low load: p95 %.4f ms without vs %.4f ms with", nohold, hold)
	}
	if *pin.Update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (go test -update writes it)", err)
	}
	var want golden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	pin.Near(t, got, want, 1e-9)
}
