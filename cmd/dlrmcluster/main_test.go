package main

import (
	"strings"
	"testing"

	"dlrmsim/internal/cluster"
	"dlrmsim/internal/traffic"
)

// goodFlags mirrors the flag defaults relevant to validation.
func goodFlags() mainFlags {
	return mainFlags{
		hotness: "high",
		scale:   8, nodes: 8, batch: 8, servers: 2, queries: 4000,
		util: 0.55, netBW: 10, shardWorkers: 1,
		arrivals: "poisson", admit: "none",
		burstFactor: 2, flashFactor: 3, revisit: 0.6, affinity: 0.5,
	}
}

func setNone(string) bool { return false }

// TestValidateBadInputs is the CLI bad-input regression table: every row
// is a flag combination a user has plausibly typed, and each must be
// rejected with a message naming the offending flag — before any engine
// work starts.
func TestValidateBadInputs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*mainFlags)
		set  []string // flags "explicitly given" beyond the mutation
		want string
	}{
		{"unknown hotness", func(o *mainFlags) { o.hotness = "scorching" }, nil, "unknown hotness"},
		{"synthetic hotness", func(o *mainFlags) { o.hotness = "oneitem" }, nil, "-hotness oneitem"},
		{"random hotness", func(o *mainFlags) { o.hotness = "random" }, nil, "-hotness random"},
		{"negative scale", func(o *mainFlags) { o.scale = -1 }, nil, "-scale"},
		{"zero nodes", func(o *mainFlags) { o.nodes = 0 }, nil, "-nodes"},
		{"zero batch", func(o *mainFlags) { o.batch = 0 }, nil, "-batch"},
		{"zero servers", func(o *mainFlags) { o.servers = 0 }, nil, "-servers"},
		{"negative cores", func(o *mainFlags) { o.cores = -2 }, nil, "-cores"},
		{"zero shard workers", func(o *mainFlags) { o.shardWorkers = 0 }, nil, "-shard-workers"},
		{"zero queries closed", func(o *mainFlags) { o.queries = 0 }, nil, "-queries"},
		{"negative arrival", func(o *mainFlags) { o.arrival = -0.5 }, nil, "-arrival"},
		{"util at 1 closed", func(o *mainFlags) { o.util = 1 }, nil, "-util"},
		{"negative netlat", func(o *mainFlags) { o.netLat = -1 }, nil, "-netlat"},
		{"open flag without -open", func(o *mainFlags) {}, []string{"rate"}, "-rate needs -open"},
		{"admit without -open", func(o *mainFlags) { o.admit = "shed" }, []string{"admit"}, "-admit needs -open"},
		{"users without -open", func(o *mainFlags) { o.users = 1000 }, []string{"users"}, "-users needs -open"},
		{"arrival with -open", func(o *mainFlags) { o.open = true; o.arrival = 0.2 }, []string{"arrival"}, "closed-loop flag"},
		{"queries with -open", func(o *mainFlags) { o.open = true }, []string{"queries"}, "closed-loop flag"},
		{"negative rate", func(o *mainFlags) { o.open = true; o.rate = -3 }, nil, "-rate"},
		{"open zero util and rate", func(o *mainFlags) { o.open = true; o.util = 0 }, nil, "-util"},
		{"negative duration", func(o *mainFlags) { o.open = true; o.duration = -1 }, nil, "-duration"},
		{"bad open warmup", func(o *mainFlags) { o.open = true; o.openWarmup = -2 }, nil, "-open-warmup"},
		{"negative sla", func(o *mainFlags) { o.open = true; o.sla = -1 }, nil, "-sla"},
		{"burst knob without mmpp", func(o *mainFlags) { o.open = true; o.burstEvery = 2 }, []string{"burst-every"}, "-burst-every needs -arrivals mmpp"},
		{"flash factor without flash", func(o *mainFlags) { o.open = true; o.flashFactor = 4 }, []string{"flash-factor"}, "-flash-factor needs -flash-every"},
		{"revisit without users", func(o *mainFlags) { o.open = true; o.revisit = 0.9 }, []string{"revisit"}, "-revisit needs -users"},
		{"scale-up without autoscaler", func(o *mainFlags) { o.open = true; o.scaleUp = 1 }, []string{"scale-up"}, "-scale-up needs -scale-every"},
		{"max-nodes without autoscaler", func(o *mainFlags) { o.open = true; o.maxNodes = 4 }, []string{"max-nodes"}, "-max-nodes needs -scale-every"},
		{"domains without chaos", func(o *mainFlags) { o.domains = 4 }, []string{"domains"}, "-domains needs -chaos"},
		{"negative domains", func(o *mainFlags) { o.chaos = "down:dom=0,at=1,for=1"; o.domains = -2 }, nil, "-domains -2"},
		{"unparseable chaos spec", func(o *mainFlags) { o.chaos = "explode:dom=0,at=1" }, nil, "unknown chaos event kind"},
		{"chaos bad value", func(o *mainFlags) { o.chaos = "down:dom=zero,at=1,for=1" }, nil, `value "zero"`},
		{"breaker-min without trip", func(o *mainFlags) { o.breakerMin = 5 }, []string{"breaker-min"}, "-breaker-min needs -breaker-trip"},
		{"breaker-cooldown without trip", func(o *mainFlags) { o.breakerCooldown = 8 }, []string{"breaker-cooldown"}, "-breaker-cooldown needs -breaker-trip"},
		{"adapt-epoch without adaptive", func(o *mainFlags) { o.adaptEpoch = 5 }, []string{"adapt-epoch"}, "-adapt-epoch needs -retry-budget or -breaker-trip"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodFlags()
			tc.mut(&o)
			set := map[string]bool{}
			for _, s := range tc.set {
				set[s] = true
			}
			err := o.validate(func(name string) bool { return set[name] })
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
			o.retryBudget, o.adaptEpoch = 0.25, 8
			o.breakerTrip, o.breakerMin, o.breakerCooldown = 0.5, 4, 32
		}},
		{"open chaos", func(o *mainFlags) {
			o.open = true
			o.chaos = "slow:dom=0,at=10,for=50,x=4;recover:dom=0,at=30"
			o.retryBudget = 0.2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodFlags()
			tc.mut(&o)
			if err := o.validate(setNone); err != nil {
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
	got, err := parseFractions(" 0, 0.01 ,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 0.01 || got[2] != 1 {
		t.Fatalf("parsed %v", got)
	}
}
