package main

// The metric declarations. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds; TestBenchmarkJSONMatches keeps
// the two in step.

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
}

// endToEnd are the host-side metrics every untraced run prints, on every
// workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// cpuPackages are the dlrmsim/internal packages the CPU-profile fold
// reports one bucket each for. Samples in any other internal package
// (check, platform, prof) land in cpu.other_s.
var cpuPackages = []string{
	"memsim", "cpusim", "embedding", "core", "dlrm", "nn", "trace", "reuse", "sched", "exp",
	"cluster", "eventq", "serve", "traffic", "stats", "hetsched",
}

// expGroups are the render workload's per-experiment span groups.
var expGroups = []string{"fig13", "fig16", "fig12", "engine_other", "cluster", "het"}

// sweepGroups are the sweep_small workload's op kinds.
var sweepGroups = []string{"closed", "faulted", "het"}

// perLayer are the metrics every traced run prints, on every workload. A
// metric that does not apply to a workload reads 0 there; README.md lists
// which workload each one is meant for.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, p := range cpuPackages {
		ms = append(ms, metricDef{Name: "cpu." + p + "_s", Unit: "s", Better: "lower"})
	}
	ms = append(ms,
		metricDef{Name: "cpu.gc_s", Unit: "s", Better: "lower"},
		metricDef{Name: "cpu.runtime_s", Unit: "s", Better: "lower"},
		metricDef{Name: "cpu.other_s", Unit: "s", Better: "lower"},
	)
	for _, g := range expGroups {
		ms = append(ms, metricDef{Name: "exp." + g + "_s", Unit: "s", Better: "lower"})
	}
	ms = append(ms,
		metricDef{Name: "cluster.ns_per_copy", Unit: "ns", Better: "lower"},
		metricDef{Name: "cluster.day_p1_s", Unit: "s", Better: "lower"},
		metricDef{Name: "cluster.parallel_x", Unit: "x", Better: "higher"},
		metricDef{Name: "cluster.copies_per_query", Unit: "ratio", Better: "lower"},
		metricDef{Name: "cluster.goodput_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "cluster.shed_rate", Unit: "ratio", Better: "lower"},
		metricDef{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
		metricDef{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower"},
	)
	for _, g := range sweepGroups {
		ms = append(ms,
			metricDef{Name: "sweep." + g + "_ms_p50", Unit: "ms", Better: "lower"},
			metricDef{Name: "sweep." + g + "_ms_p95", Unit: "ms", Better: "lower"},
		)
	}
	ms = append(ms,
		metricDef{Name: "sweep.op_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "sim_qps", Unit: "req/s", Better: "higher"},
		metricDef{Name: "setup.warmup_s", Unit: "s", Better: "lower"},
		metricDef{Name: "host.canary_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	)
	return ms
}()

// declared returns the metrics a run prints in its result line.
func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
