package cluster

import (
	"math"
	"slices"
	"strings"
	"testing"

	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// chaosTestSchedule spans a run horizon with every event kind: a long
// slowdown of domain 0, an outage of domain 1 cut short by a recover
// (which also truncates the partition involving domain 1), and a
// partition between the two domains.
func chaosTestSchedule(horizon float64) ChaosSchedule {
	return ChaosSchedule{Domains: 2, Events: []ChaosEvent{
		{Kind: DomainSlowdown, Domain: 0, AtMs: 0.1 * horizon, ForMs: 0.4 * horizon, Factor: 5},
		{Kind: DomainOutage, Domain: 1, AtMs: 0.2 * horizon, ForMs: 0.3 * horizon},
		{Kind: Partition, Domain: 0, Peer: 1, AtMs: 0.3 * horizon, ForMs: 0.2 * horizon},
		{Kind: Recover, Domain: 1, AtMs: 0.35 * horizon},
	}}
}

// TestChaosSpecRoundTrip: String renders the CLI grammar and
// ParseChaosSchedule reproduces the events exactly (%g round-trips
// float64, so no precision is lost).
func TestChaosSpecRoundTrip(t *testing.T) {
	sched := chaosTestSchedule(1000)
	sched.Events = append(sched.Events, ChaosEvent{Kind: DomainOutage, Domain: 1, AtMs: 400.125, ForMs: 33.6})
	parsed, err := ParseChaosSchedule(sched.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", sched.String(), err)
	}
	if !slices.Equal(parsed.Events, sched.Events) {
		t.Errorf("round trip lost events:\nwant %+v\ngot  %+v", sched.Events, parsed.Events)
	}
	empty, err := ParseChaosSchedule("  ")
	if err != nil || empty.Active() {
		t.Errorf("blank spec: schedule %+v, err %v, want inactive, nil", empty, err)
	}
}

func TestParseChaosScheduleErrors(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"down", "missing ':'"},
		{"boom:dom=1,at=2,for=3", "unknown chaos event kind"},
		{"down:dom=1,at=2", `missing key "for"`},
		{"part:a=0,at=2,for=3", `missing key "b"`},
		{"slow:dom=1,at=2,for=3", `missing key "x"`},
		{"down:at=2,for=3", `missing key "dom"`},
		{"down:dom=1,for=3", `missing key "at"`},
		{"down:dom=1,dom=2,at=0,for=1", `repeats key "dom"`},
		{"down:dom=zz,at=0,for=1", `value "zz"`},
		{"down:dom=1,at=0,for=1,x=2", `unknown key "x"`},
		{"recover:dom=1,at=5,for=2", `unknown key "for"`},
		{"part:dom=1,a=0,b=1,at=0,for=1", `unknown key "dom"`},
		{"down:dom,at=0,for=1", "missing '='"},
	} {
		_, err := ParseChaosSchedule(tc.spec)
		if err == nil {
			t.Errorf("spec %q accepted", tc.spec)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: err %v, want mention of %q", tc.spec, err, tc.want)
		}
	}
}

func TestChaosScheduleValidate(t *testing.T) {
	ev := func(es ...ChaosEvent) []ChaosEvent { return es }
	for name, tc := range map[string]struct {
		sched ChaosSchedule
		want  string // "" means valid
	}{
		"good":            {chaosTestSchedule(1000), ""},
		"zero":            {ChaosSchedule{}, ""},
		"neg-domains":     {ChaosSchedule{Domains: -1, Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: 1, ForMs: 1})}, "-1 chaos domains"},
		"too-many":        {ChaosSchedule{Domains: 9, Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: 1, ForMs: 1})}, "exceed 4 nodes"},
		"domains-no-ev":   {ChaosSchedule{Domains: 2}, "without chaos events"},
		"neg-at":          {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: -1, ForMs: 1})}, "negative instant"},
		"nan-at":          {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: math.NaN(), ForMs: 1})}, "non-finite"},
		"inf-at":          {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: math.Inf(1), ForMs: 1})}, "non-finite"},
		"out-of-order":    {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: 10, ForMs: 1}, ChaosEvent{Kind: DomainOutage, AtMs: 5, ForMs: 1})}, "out of order"},
		"recover-window":  {ChaosSchedule{Events: ev(ChaosEvent{Kind: Recover, AtMs: 1, ForMs: 2})}, "recover event 0 has a window"},
		"zero-window":     {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: 1})}, "window length 0"},
		"nan-window":      {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: 1, ForMs: math.NaN()})}, "window length"},
		"inf-overflow":    {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: 1e308, ForMs: 1e308})}, "window length"},
		"small-factor":    {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainSlowdown, AtMs: 1, ForMs: 1, Factor: 0.5})}, "factor 0.5 < 1"},
		"stray-factor":    {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, AtMs: 1, ForMs: 1, Factor: 2})}, "non-slowdown"},
		"bad-domain":      {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, Domain: 4, AtMs: 1, ForMs: 1})}, "outside [0,4)"},
		"self-partition":  {ChaosSchedule{Events: ev(ChaosEvent{Kind: Partition, Domain: 1, Peer: 1, AtMs: 1, ForMs: 1})}, "from itself"},
		"stray-peer":      {ChaosSchedule{Events: ev(ChaosEvent{Kind: DomainOutage, Peer: 2, AtMs: 1, ForMs: 1})}, "non-partition"},
		"bad-kind":        {ChaosSchedule{Events: ev(ChaosEvent{Kind: ChaosKind(9), AtMs: 1, ForMs: 1})}, "invalid kind"},
		"bad-pair-domain": {ChaosSchedule{Domains: 2, Events: ev(ChaosEvent{Kind: Partition, Domain: 0, Peer: 3, AtMs: 1, ForMs: 1})}, "outside [0,2)"},
	} {
		errs := tc.sched.validateErrs(4)
		if tc.want == "" {
			if len(errs) != 0 {
				t.Errorf("%s: unexpected errors %v", name, errs)
			}
			continue
		}
		found := false
		for _, err := range errs {
			if strings.Contains(err.Error(), tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: errors %v missing %q", name, errs, tc.want)
		}
	}
}

// chaosFaults materializes a schedule alone — no stochastic faults —
// into a fresh fault state for nodes nodes.
func chaosFaults(sched ChaosSchedule, nodes int) *faultState {
	var fs faultState
	fs.init(&Config{Chaos: sched}, nodes)
	return &fs
}

// TestChaosRecoverTruncation: a recover event cuts the open windows of
// its domain — including partition windows involving it — at its
// instant, and fully recovered (zero-length) windows are dropped. Every
// node of a domain carries the domain's windows.
func TestChaosRecoverTruncation(t *testing.T) {
	fs := chaosFaults(ChaosSchedule{Domains: 2, Events: []ChaosEvent{
		{Kind: DomainSlowdown, Domain: 0, AtMs: 50, ForMs: 100, Factor: 3},
		{Kind: DomainOutage, Domain: 1, AtMs: 100, ForMs: 200},
		{Kind: Partition, Domain: 0, Peer: 1, AtMs: 150, ForMs: 200},
		{Kind: Recover, Domain: 1, AtMs: 180},
		{Kind: DomainOutage, Domain: 0, AtMs: 400, ForMs: 50},
		{Kind: Recover, Domain: 0, AtMs: 400},
	}}, 4)
	for n := 0; n < 4; n++ {
		out, slow := fs.nodes[n].down[srcChaos].Win, fs.nodes[n].slow[srcChaos].Win
		if n < 2 { // domain 0
			if len(out) != 0 {
				t.Errorf("node %d: domain 0 outage recovered at its start must vanish, got %+v", n, out)
			}
			if len(slow) != 1 || slow[0] != (stats.Window{Start: 50, End: 150, Factor: 3}) {
				t.Errorf("node %d: slowdown window = %+v, want [50,150) x3", n, slow)
			}
			continue
		}
		if len(out) != 1 || out[0] != (stats.Window{Start: 100, End: 180}) {
			t.Errorf("node %d: domain 1 outage = %+v, want [100,180)", n, out)
		}
		if len(slow) != 0 {
			t.Errorf("node %d: domain 1 has slowdown windows %+v", n, slow)
		}
	}
	if len(fs.pairs) != 1 || len(fs.pairs[0].win) != 1 || fs.pairs[0].win[0] != (stats.Window{Start: 150, End: 180}) {
		t.Errorf("partition windows = %+v, want one pair with [150,180)", fs.pairs)
	}
	if fs.clearMs != 180 {
		t.Errorf("clearMs = %g, want 180 (last surviving window end)", fs.clearMs)
	}
	if f := factorAt(&fs.nodes[0].slow[srcChaos], 100); f != 3 {
		t.Errorf("slow factor(domain 0 node, mid-window) = %g, want 3", f)
	}
	if f := factorAt(&fs.nodes[0].slow[srcChaos], 150); f != 1 {
		t.Errorf("slow factor at window end = %g, want 1 (half-open interval)", f)
	}
	if f := factorAt(&fs.nodes[2].slow[srcChaos], 100); f != 1 {
		t.Errorf("slow factor(domain 1 node) = %g, want 1", f)
	}
}

// TestChaosOverlappingSlowdowns: overlapping slowdown windows on one
// domain are cut into disjoint segments, each carrying the max factor
// over it, so the binary-searched factor equals the max over the
// windows open at every instant.
func TestChaosOverlappingSlowdowns(t *testing.T) {
	fs := chaosFaults(ChaosSchedule{Domains: 1, Events: []ChaosEvent{
		{Kind: DomainSlowdown, AtMs: 10, ForMs: 40, Factor: 5}, // [10,50)
		{Kind: DomainSlowdown, AtMs: 20, ForMs: 10, Factor: 2}, // [20,30), inside the first
		{Kind: DomainSlowdown, AtMs: 40, ForMs: 30, Factor: 3}, // [40,70)
		{Kind: DomainSlowdown, AtMs: 80, ForMs: 10, Factor: 1}, // [80,90), a no-op factor
	}}, 2)
	want := []stats.Window{{Start: 10, End: 20, Factor: 5}, {Start: 20, End: 30, Factor: 5}, {Start: 30, End: 40, Factor: 5},
		{Start: 40, End: 50, Factor: 5}, {Start: 50, End: 70, Factor: 3}, {Start: 80, End: 90, Factor: 1}}
	for n := 0; n < 2; n++ {
		if got := fs.nodes[n].slow[srcChaos].Win; !slices.Equal(got, want) {
			t.Errorf("node %d segments = %+v, want %+v", n, got, want)
		}
	}
	for _, tc := range []struct{ t, f float64 }{
		{0, 1}, {10, 5}, {25, 5}, {49.9, 5}, {50, 3}, {69, 3}, {70, 1}, {85, 1}, {90, 1},
	} {
		if f := factorAt(&fs.nodes[1].slow[srcChaos], tc.t); f != tc.f {
			t.Errorf("factor at %g = %g, want %g", tc.t, f, tc.f)
		}
	}
}

// TestChaosTransitShift: a copy whose flight overlaps a severance window
// is lost and re-sent when the partition heals; back-to-back windows
// compound.
func TestChaosTransitShift(t *testing.T) {
	fs := chaosFaults(ChaosSchedule{Domains: 2, Events: []ChaosEvent{
		{Kind: Partition, Domain: 0, Peer: 1, AtMs: 100, ForMs: 100},
		{Kind: Partition, Domain: 1, Peer: 0, AtMs: 250, ForMs: 50},
	}}, 4)
	for _, tc := range []struct {
		home, target    int
		depart, transit float64
		shift           float64
		resends         int
	}{
		{0, 1, 50, 10, 0, 0},   // lands before the window opens
		{0, 0, 150, 10, 0, 0},  // same domain: never severed
		{0, 2, 95, 10, 105, 1}, // in flight at open: resent at 200
		{2, 0, 150, 5, 50, 1},  // launched into the window (reversed pair)
		{0, 2, 200, 5, 0, 0},   // window end is exclusive
		{0, 2, 95, 60, 205, 2}, // resend at 200 still in flight at 250: resent again at 300
		{0, 2, 240, 5, 0, 0},   // gap between windows, short flight
		{0, 2, 240, 20, 60, 1}, // gap departure, flight overlaps the second window
	} {
		shift, resends := fs.severShift(tc.home, tc.target, tc.depart, tc.transit)
		if shift != tc.shift || resends != tc.resends {
			t.Errorf("severShift(%d→%d, depart %g, transit %g) = (%g, %d), want (%g, %d)",
				tc.home, tc.target, tc.depart, tc.transit, shift, resends, tc.shift, tc.resends)
		}
		// Without drops, the one transit entry point is the severance
		// alone (attempt and query do not matter).
		shift, resends = fs.transit(0, tc.home, tc.target, 0, tc.depart, tc.transit)
		if shift != tc.shift || resends != tc.resends {
			t.Errorf("transit(%d→%d, launch %g, transit %g) = (%g, %d), want (%g, %d)",
				tc.home, tc.target, tc.depart, tc.transit, shift, resends, tc.shift, tc.resends)
		}
	}
}

// TestChaosOutageMs: the availability numerator merges overlapping
// windows per domain and clips to the horizon.
func TestChaosOutageMs(t *testing.T) {
	fs := chaosFaults(ChaosSchedule{Domains: 2, Events: []ChaosEvent{
		{Kind: DomainOutage, Domain: 0, AtMs: 0, ForMs: 100},
		{Kind: DomainOutage, Domain: 0, AtMs: 50, ForMs: 100},
		{Kind: DomainOutage, Domain: 1, AtMs: 60, ForMs: 20},
		{Kind: DomainOutage, Domain: 0, AtMs: 200, ForMs: 50},
	}}, 4)
	if got := fs.outageMs(220); got != 190 {
		t.Errorf("outageMs(220) = %g, want 190 ([0,150)+[200,220) on domain 0, [60,80) on domain 1)", got)
	}
	if got := fs.outageMs(100); got != 120 {
		t.Errorf("outageMs(100) = %g, want 120 (clipped)", got)
	}
}

// TestChaosDomainAvailabilityMetric pins the open-loop recovery
// metrics on an exactly computable schedule: one 50 ms outage of one of
// two domains over a 400 ms horizon.
func TestChaosDomainAvailabilityMetric(t *testing.T) {
	cfg := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.4)},
		DurationMs: 400,
		SLAMs:      50,
	})
	cfg.Chaos = ChaosSchedule{Domains: 2, Events: []ChaosEvent{
		{Kind: DomainOutage, Domain: 0, AtMs: 100, ForMs: 50},
	}}
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - 50.0/(2*400); res.DomainAvailability != want {
		t.Errorf("DomainAvailability = %g, want %g", res.DomainAvailability, want)
	}
	if res.TimeToRecoverMs < 0 {
		t.Errorf("TimeToRecoverMs = %g: a lightly loaded fleet must recover from a 50 ms outage", res.TimeToRecoverMs)
	}
	if res.RetryAmplification < 1 {
		t.Errorf("RetryAmplification = %g, want >= 1 (every query sends at least its primaries)", res.RetryAmplification)
	}
	if res.PostFaultOfferedQPS <= 0 || res.PostFaultGoodput <= 0 {
		t.Errorf("post-fault window empty: offered %g, goodput %g", res.PostFaultOfferedQPS, res.PostFaultGoodput)
	}

	clean := cfg
	clean.Chaos = ChaosSchedule{}
	cres, err := Simulate(clean)
	if err != nil {
		t.Fatal(err)
	}
	if cres.DomainAvailability != 1 || cres.TimeToRecoverMs != 0 || cres.BreakerOpenMinutes != 0 {
		t.Errorf("clean run recovery metrics: availability %g, recover %g, breaker %g, want 1, 0, 0",
			cres.DomainAvailability, cres.TimeToRecoverMs, cres.BreakerOpenMinutes)
	}
}

// TestChaosClosedLoopDeterministic: the closed loop accepts schedules
// too, and repeated runs are bit-identical.
func TestChaosClosedLoopDeterministic(t *testing.T) {
	cfg := testConfig(t, 4, RowRange, 0.01, trace.MediumHot)
	cfg.Chaos = chaosTestSchedule(cfg.MeanArrivalMs * float64(cfg.Queries))
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("chaos run not deterministic:\n%+v\n%+v", a, b)
	}
	if a.DomainAvailability >= 1 {
		t.Errorf("DomainAvailability = %g with a scheduled outage, want < 1", a.DomainAvailability)
	}
}

// TestChaosAdaptiveByteIdentical is the robustness tier's named identity
// suite (CI runs it under -race): every chaos + adaptive-mitigation
// scenario must be byte-identical across Sequential and Parallel(2, 8),
// in both loops and both open-loop summary modes. This is the scripted
// counterpart of the generic exec-backend families; it exists so the
// chaos/budget/breaker path is pinned by name.
func TestChaosAdaptiveByteIdentical(t *testing.T) {
	closed := execConfigs(t)
	open := openExecConfigs(t)
	cfgs := map[string]Config{
		"closed-chaos":    closed["chaos"],
		"closed-adaptive": closed["chaos-adaptive"],
		"open-adaptive":   open["chaos-adaptive"],
	}
	stream := open["chaos-adaptive"]
	o := *stream.Open
	o.StreamStats = true
	stream.Open = &o
	cfgs["open-adaptive-stream"] = stream
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			want, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 8} {
				restore := SetExecBackend(Parallel(shards))
				got, err := Simulate(cfg)
				restore()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Parallel(%d) diverged from Sequential:\nseq %+v\npar %+v", shards, want, got)
				}
			}
		})
	}
}
