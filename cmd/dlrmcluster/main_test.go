package main

import (
	"math"
	"strings"
	"testing"

	"dlrmsim/internal/cluster"
	"dlrmsim/internal/traffic"
)

// goodFlags mirrors the flag defaults relevant to validation.
func goodFlags() mainFlags {
	return mainFlags{
		modelName: "rm2_1", scheme: "baseline", policy: "rowrange", hotness: "high",
		scale: 8, nodes: 8, batch: 8, servers: 2, queries: 4000,
		util: 0.55, netBW: 10, shardWorkers: 1,
		replicate: "0,0.001,0.01,0.05,0.2", seed: 1,
		faults:   cluster.FaultModel{SlowdownFactor: 4},
		arrivals: "poisson", admit: "none",
		burstFactor: 2, flashFactor: 3, revisit: 0.6, affinity: 0.5,
	}
}

func setNone(string) bool { return false }

// TestValidateBadInputs is the CLI bad-input regression table: every row
// is a flag combination a user has plausibly typed, and each must be
// rejected — before any engine work starts — with a message naming the
// offending flag, or the library config field it sets.
func TestValidateBadInputs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*mainFlags)
		set  []string // flags "explicitly given" beyond the mutation
		want string
	}{
		{"unknown hotness", func(o *mainFlags) { o.hotness = "scorching" }, nil, "unknown hotness"},
		{"unknown model", func(o *mainFlags) { o.modelName = "bogus" }, nil, `unknown model "bogus"`},
		{"unknown scheme", func(o *mainFlags) { o.scheme = "turbo" }, nil, `unknown scheme "turbo"`},
		{"unknown policy", func(o *mainFlags) { o.policy = "hashed" }, nil, `unknown sharding policy "hashed"`},
		{"unknown model with zero nodes", func(o *mainFlags) { o.modelName = "bogus"; o.nodes = 0 }, nil, `unknown model "bogus"`},
		{"synthetic hotness", func(o *mainFlags) { o.hotness = "oneitem" }, nil, "-hotness oneitem"},
		{"random hotness", func(o *mainFlags) { o.hotness = "random" }, nil, "-hotness random"},
		{"negative scale", func(o *mainFlags) { o.scale = -1 }, nil, "-scale"},
		{"zero nodes", func(o *mainFlags) { o.nodes = 0 }, nil, "cluster: 0 nodes"},
		{"zero nodes with drop above 1", func(o *mainFlags) { o.nodes = 0; o.faults.DropProb = 2 }, []string{"drop"}, "drop probability 2 outside [0,1)"},
		{"zero nodes open with negative sla", func(o *mainFlags) { o.nodes = 0; o.open = true; o.sla = -1 }, nil, "SLA target (got -1 ms)"},
		{"zero batch", func(o *mainFlags) { o.batch = 0 }, nil, "0 samples per query"},
		{"zero servers", func(o *mainFlags) { o.servers = 0 }, nil, "-servers"},
		{"negative cores", func(o *mainFlags) { o.cores = -2 }, nil, "core: -2 cores"},
		{"cores above platform", func(o *mainFlags) { o.cores = 100 }, nil, "core: 100 cores on a 24-core"},
		{"zero shard workers", func(o *mainFlags) { o.shardWorkers = 0 }, nil, "-shard-workers"},
		{"zero queries closed", func(o *mainFlags) { o.queries = 0 }, nil, "-queries"},
		{"negative arrival", func(o *mainFlags) { o.arrival = -0.5 }, nil, "mean arrival -0.5 ms"},
		{"util at 1 closed", func(o *mainFlags) { o.util = 1 }, nil, "-util"},
		{"negative netlat", func(o *mainFlags) { o.netLat = -1 }, nil, "network parameters (latency -1 ms"},
		{"NaN netlat", func(o *mainFlags) { o.netLat = math.NaN() }, nil, "network parameters (latency NaN ms"},
		{"NaN netbw", func(o *mainFlags) { o.netBW = math.NaN() }, nil, "bandwidth NaN GB/s"},
		{"NaN arrival", func(o *mainFlags) { o.arrival = math.NaN() }, nil, "mean arrival NaN ms"},
		{"NaN util closed", func(o *mainFlags) { o.util = math.NaN() }, nil, "-util"},
		{"NaN util open", func(o *mainFlags) { o.open = true; o.util = math.NaN() }, nil, "-util"},
		{"NaN rate", func(o *mainFlags) { o.open = true; o.rate = math.NaN() }, nil, "arrival rate NaN/ms"},
		{"NaN duration", func(o *mainFlags) { o.open = true; o.duration = math.NaN() }, nil, "positive duration (got NaN ms)"},
		{"NaN open warmup", func(o *mainFlags) { o.open = true; o.openWarmup = math.NaN() }, nil, "warmup NaN ms"},
		{"NaN sla", func(o *mainFlags) { o.open = true; o.sla = math.NaN() }, nil, "SLA target (got NaN ms)"},
		{"NaN diurnal", func(o *mainFlags) { o.open = true; o.day = 100; o.diurnal = math.NaN() }, nil, "diurnal amplitude NaN"},
		{"NaN revisit", func(o *mainFlags) { o.open = true; o.users = 20; o.revisit = math.NaN() }, nil, "revisit probability NaN"},
		{"+Inf flash factor", func(o *mainFlags) { o.open = true; o.flashEvery = 50; o.flashDur = 5; o.flashFactor = math.Inf(1) }, nil, "flash factor +Inf"},
		{"open flag without -open", func(o *mainFlags) {}, []string{"rate"}, "-rate needs -open"},
		{"admit without -open", func(o *mainFlags) { o.admit = "shed" }, []string{"admit"}, "-admit needs -open"},
		{"users without -open", func(o *mainFlags) { o.users = 1000 }, []string{"users"}, "-users needs -open"},
		{"arrival with -open", func(o *mainFlags) { o.open = true; o.arrival = 0.2 }, []string{"arrival"}, "closed-loop flag"},
		{"queries with -open", func(o *mainFlags) { o.open = true }, []string{"queries"}, "closed-loop flag"},
		{"negative rate", func(o *mainFlags) { o.open = true; o.rate = -3 }, nil, "arrival rate -3/ms"},
		{"open zero util and rate", func(o *mainFlags) { o.open = true; o.util = 0 }, nil, "-util"},
		{"negative duration", func(o *mainFlags) { o.open = true; o.duration = -1 }, nil, "positive duration (got -1 ms)"},
		{"bad open warmup", func(o *mainFlags) { o.open = true; o.openWarmup = -2 }, nil, "warmup -2 ms"},
		{"negative sla", func(o *mainFlags) { o.open = true; o.sla = -1 }, nil, "SLA target (got -1 ms)"},
		{"burst knob without mmpp", func(o *mainFlags) { o.open = true; o.burstEvery = 2 }, []string{"burst-every"}, "-burst-every needs -arrivals mmpp"},
		{"flash factor without flash", func(o *mainFlags) { o.open = true; o.flashFactor = 4 }, []string{"flash-factor"}, "-flash-factor needs -flash-every"},
		{"revisit without users", func(o *mainFlags) { o.open = true; o.revisit = 0.9 }, []string{"revisit"}, "-revisit needs -users"},
		{"scale-up without autoscaler", func(o *mainFlags) { o.open = true; o.scaleUp = 1 }, []string{"scale-up"}, "-scale-up needs -scale-every"},
		{"max-nodes without autoscaler", func(o *mainFlags) { o.open = true; o.maxNodes = 4 }, []string{"max-nodes"}, "-max-nodes needs -scale-every"},
		{"domains without chaos", func(o *mainFlags) { o.domains = 4 }, []string{"domains"}, "-domains needs -chaos"},
		{"negative domains", func(o *mainFlags) { o.chaos = "down:dom=0,at=1,for=1"; o.domains = -2 }, nil, "-2 chaos domains"},
		{"unparseable chaos spec", func(o *mainFlags) { o.chaos = "explode:dom=0,at=1" }, nil, "unknown chaos event kind"},
		{"chaos bad value", func(o *mainFlags) { o.chaos = "down:dom=zero,at=1,for=1" }, nil, `value "zero"`},
		{"breaker-min without trip", func(o *mainFlags) { o.mit.BreakerMinSamples = 5 }, []string{"breaker-min"}, "-breaker-min needs -breaker-trip"},
		{"breaker-cooldown without trip", func(o *mainFlags) { o.mit.BreakerCooldownMs = 8 }, []string{"breaker-cooldown"}, "-breaker-cooldown needs -breaker-trip"},
		{"adapt-epoch without adaptive", func(o *mainFlags) { o.mit.AdaptEpochMs = 5 }, []string{"adapt-epoch"}, "-adapt-epoch needs -retry-budget or -breaker-trip"},
		{"drop probability above 1", func(o *mainFlags) { o.faults.DropProb = 2 }, []string{"drop"}, "drop probability 2 outside [0,1)"},
		{"negative timeout", func(o *mainFlags) { o.mit.TimeoutMs = -1 }, []string{"timeout"}, "mitigation timeout -1"},
		{"retries without timeout", func(o *mainFlags) { o.mit.MaxRetries = 2 }, []string{"retries"}, "retries need a timeout"},
		{"degraded without timeout", func(o *mainFlags) { o.mit.DegradedJoin = true }, []string{"degraded"}, "degraded joins need a timeout"},
		{"chaos domain beyond the fleet", func(o *mainFlags) { o.chaos = "down:dom=9,at=1,for=1" }, nil, "domain 9 outside [0,8)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodFlags()
			tc.mut(&o)
			set := map[string]bool{}
			for _, s := range tc.set {
				set[s] = true
			}
			_, err := o.validate(func(name string) bool { return set[name] })
			if err == nil {
				t.Fatalf("accepted bad flags %+v", o)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateGoodInputs: the defaults and representative good
// combinations pass with no flags explicitly set.
func TestValidateGoodInputs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*mainFlags)
	}{
		{"defaults", func(o *mainFlags) {}},
		{"open defaults", func(o *mainFlags) { o.open = true }},
		{"open overload util", func(o *mainFlags) { o.open = true; o.util = 1.4 }},
		{"open mmpp bursts", func(o *mainFlags) {
			o.open = true
			o.arrivals = "mmpp"
			o.burstEvery, o.burstDur = 2, 0.3
		}},
		{"open full stack", func(o *mainFlags) {
			o.open = true
			o.users = 100000
			o.admit = "shed"
			o.admitBudget = 0.5
			o.startNodes = 4
			o.scaleEvery, o.scaleUp, o.scaleDown = 1, 0.5, 0.05
		}},
		{"chaos with adaptive mitigation", func(o *mainFlags) {
			o.chaos = "down:dom=2,at=200,for=150;part:a=0,b=1,at=400,for=100"
			o.domains = 4
			o.mit.TimeoutMs, o.mit.MaxRetries = 2, 1
			o.mit.RetryBudget, o.mit.AdaptEpochMs = 0.25, 8
			o.mit.BreakerTripRate, o.mit.BreakerMinSamples, o.mit.BreakerCooldownMs = 0.5, 4, 32
		}},
		{"open chaos", func(o *mainFlags) {
			o.open = true
			o.chaos = "slow:dom=0,at=10,for=50,x=4;recover:dom=0,at=30"
			o.mit.TimeoutMs, o.mit.MaxRetries, o.mit.RetryBudget = 2, 1, 0.2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodFlags()
			tc.mut(&o)
			if _, err := o.validate(setNone); err != nil {
				t.Fatalf("rejected good flags: %v", err)
			}
		})
	}
}

// TestOpenLoopAssembly: the flag-to-config wiring gates each feature's
// knobs on its enabling flag, so defaults for disabled features never
// leak into the cluster config (where they would be misplaced-knob
// errors).
func TestOpenLoopAssembly(t *testing.T) {
	o := goodFlags()
	o.open = true
	o.rate, o.duration, o.sla = 5, 200, 1
	open, err := o.openLoop()
	if err != nil {
		t.Fatal(err)
	}
	if open.Arrivals.Model != traffic.Poisson || open.Arrivals.RatePerMs != 5 {
		t.Fatalf("arrivals = %+v", open.Arrivals)
	}
	if open.Arrivals.BurstFactor != 0 {
		t.Fatalf("poisson stream leaked the burst-factor default: %+v", open.Arrivals)
	}
	if open.Arrivals.FlashFactor != 0 {
		t.Fatalf("flashless stream leaked the flash-factor default: %+v", open.Arrivals)
	}
	if open.Population != nil || open.Autoscale != nil {
		t.Fatalf("disabled features present: %+v", open)
	}
	if open.Admission.Policy != cluster.AdmitAll {
		t.Fatalf("admission = %+v", open.Admission)
	}

	o.arrivals = "mmpp"
	o.burstEvery, o.burstDur = 2, 0.3
	o.flashEvery, o.flashDur = 50, 5
	o.users, o.revisit, o.affinity = 1000, 0.7, 0.4
	o.admit, o.admitBudget = "shed", 0.5
	o.scaleEvery, o.scaleUp, o.scaleDown, o.provision = 1, 0.5, 0.05, 2
	o.minNodes, o.maxNodes = 2, 8
	open, err = o.openLoop()
	if err != nil {
		t.Fatal(err)
	}
	ar := open.Arrivals
	if ar.Model != traffic.MMPP || ar.BurstFactor != 2 || ar.BurstEveryMs != 2 || ar.BurstMeanMs != 0.3 {
		t.Fatalf("mmpp knobs not wired: %+v", ar)
	}
	if ar.FlashEveryMs != 50 || ar.FlashMeanMs != 5 || ar.FlashFactor != 3 {
		t.Fatalf("flash knobs not wired: %+v", ar)
	}
	if open.Population == nil || open.Population.Users != 1000 || open.Population.RevisitProb != 0.7 || open.Population.Affinity != 0.4 {
		t.Fatalf("population not wired: %+v", open.Population)
	}
	if open.Admission.Policy != cluster.ShedOverBudget || open.Admission.QueueBudgetMs != 0.5 {
		t.Fatalf("admission not wired: %+v", open.Admission)
	}
	as := open.Autoscale
	if as == nil || as.IntervalMs != 1 || as.UpBacklogMs != 0.5 || as.DownBacklogMs != 0.05 ||
		as.ProvisionMs != 2 || as.MinNodes != 2 || as.MaxNodes != 8 {
		t.Fatalf("autoscaler not wired: %+v", as)
	}

	o.arrivals = "sawtooth"
	if _, err := o.openLoop(); err == nil {
		t.Fatal("accepted unknown arrival model")
	}
	o.arrivals = "mmpp"
	o.admit = "lifo"
	if _, err := o.openLoop(); err == nil {
		t.Fatal("accepted unknown admission policy")
	}
}

// TestChaosScheduleFlag: -chaos parses through the cluster grammar and
// -domains is stamped into the schedule the config will carry.
func TestChaosScheduleFlag(t *testing.T) {
	o := goodFlags()
	o.chaos = "down:dom=1,at=200,for=150;recover:dom=1,at=300"
	o.domains = 2
	sched, err := o.chaosSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Domains != 2 || len(sched.Events) != 2 {
		t.Fatalf("schedule = %+v", sched)
	}
	if sched.Events[0].Kind != cluster.DomainOutage || sched.Events[1].Kind != cluster.Recover {
		t.Fatalf("events = %+v", sched.Events)
	}
	o.chaos = "down:dom=1"
	if _, err := o.chaosSchedule(); err == nil {
		t.Fatal("accepted an outage with no window")
	}
}

func TestParseFractions(t *testing.T) {
	if _, err := parseFractions("0,0.5,nope"); err == nil {
		t.Fatal("accepted junk fraction")
	}
	if _, err := parseFractions("1.5"); err == nil {
		t.Fatal("accepted fraction above 1")
	}
	if got, err := parseFractions("NaN"); err == nil {
		t.Fatalf("accepted a NaN fraction: %v", got)
	}
	got, err := parseFractions(" 0, 0.01 ,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 0.01 || got[2] != 1 {
		t.Fatalf("parsed %v", got)
	}
}

// TestNodeTimingFollowsBatch: the engine run that sets the service model
// runs at -batch. The per-lookup cost it derives then barely moves with the
// batch size, while a query's dense time shrinks with its sample count.
// When the engine ran its default 64 samples and the embedding time was
// divided by -batch's lookups, -batch 8 charged each lookup 8× too much
// and every query the dense time of 64 samples.
func TestNodeTimingFollowsBatch(t *testing.T) {
	tms := map[int]cluster.Timing{}
	for _, batch := range []int{8, 64} {
		o := goodFlags()
		o.batch, o.cores, o.scale = batch, 2, 40
		spec, err := o.validate(setNone)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := nodeTiming(spec.engine)
		if err != nil {
			t.Fatal(err)
		}
		tms[batch] = tm
	}
	small, big := tms[8], tms[64]
	if r := small.ColdLookupUs / big.ColdLookupUs; r < 0.5 || r > 2 {
		t.Errorf("cold µs/lookup %g at -batch 8, %g at -batch 64: ratio %.2f, want within 2×",
			small.ColdLookupUs, big.ColdLookupUs, r)
	}
	if small.DenseMs >= big.DenseMs/2 {
		t.Errorf("dense %g ms at -batch 8, %g ms at -batch 64: want under half", small.DenseMs, big.DenseMs)
	}
}
