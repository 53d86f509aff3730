package hetsched

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"dlrmsim/internal/check"
)

// TestMain runs the whole package's tests with runtime invariants on, so
// every simulation in this file doubles as an invariant check.
func TestMain(m *testing.M) {
	check.Enabled = true
	os.Exit(m.Run())
}

// testGraph is a mid-weight DLRM request: 40 µs of gathers, 30 µs dense.
func testGraph() Graph { return DLRMGraph(40, 30) }

func mustMix(t testing.TB, name string) []DeviceSpec {
	t.Helper()
	devs, err := NewMix(name)
	if err != nil {
		t.Fatal(err)
	}
	return devs
}

func run(t testing.TB, cfg Config) Result {
	t.Helper()
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return res
}

func TestSimulateDeterministic(t *testing.T) {
	for _, mix := range Mixes {
		for _, pol := range AllPolicies {
			cfg := Config{
				Graph:         testGraph(),
				Devices:       mustMix(t, mix),
				Policy:        pol,
				MeanArrivalMs: ArrivalForUtilization(testGraph(), mustMix(t, mix), 0.7),
				Requests:      400,
				JitterFrac:    0.2,
				Seed:          7,
			}
			a := run(t, cfg)
			b := run(t, cfg)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: two runs of one config differ:\n%+v\n%+v", mix, pol, a, b)
			}
		}
	}
}

func TestSimulateSeedMatters(t *testing.T) {
	cfg := Config{
		Graph:         testGraph(),
		Devices:       mustMix(t, "cpu4"),
		Policy:        EFT,
		MeanArrivalMs: 0.03,
		Requests:      400,
		JitterFrac:    0.3,
		Seed:          1,
	}
	a := run(t, cfg)
	cfg.Seed = 2
	b := run(t, cfg)
	if a.P95 == b.P95 && a.Mean == b.Mean {
		t.Errorf("different seeds produced identical latencies: %+v", a)
	}
}

// TestMPHTColocation pins the paper's MP-HT reproduction: on the
// two-SMT-thread fleet the affinity policy is exactly the colocation
// scheme — gathers on one thread, dense phases on the other — so sibling
// overlap is always cross-kind, never the contended same-kind case.
func TestMPHTColocation(t *testing.T) {
	g := testGraph()
	devs := mustMix(t, "smt2")
	cfg := Config{
		Graph:         g,
		Devices:       devs,
		Policy:        Affinity,
		MeanArrivalMs: ArrivalForUtilization(g, devs, 0.7),
		Requests:      600,
		Seed:          3,
	}
	res := run(t, cfg)
	if res.SameKindOverlapMs != 0 {
		t.Errorf("MP-HT colocation produced %g ms of same-kind SMT overlap, want 0", res.SameKindOverlapMs)
	}
	if res.CrossKindOverlapMs <= 0 {
		t.Errorf("MP-HT colocation never overlapped gather with dense (cross overlap %g)", res.CrossKindOverlapMs)
	}
	if res.Util[CPUClass] <= 0 || res.UtilTotal <= 0 {
		t.Errorf("no CPU utilization recorded: %+v", res)
	}
}

// TestPIMNeverRunsDense feeds the hetero fleet and checks the incapable
// device is respected: with check.Enabled a misrouted MLP would panic in
// startBatch via a NaN/invariant, and the PIM class must still see gather
// utilization.
func TestPIMUsedForGathers(t *testing.T) {
	g := testGraph()
	devs := mustMix(t, "hetero")
	for _, pol := range AllPolicies {
		cfg := Config{
			Graph:         g,
			Devices:       devs,
			Policy:        pol,
			MeanArrivalMs: ArrivalForUtilization(g, devs, 0.6),
			Requests:      400,
			Seed:          5,
		}
		res := run(t, cfg)
		if pol != EFT && res.Util[PIMClass] <= 0 {
			t.Errorf("%v: PIM class never utilized: %+v", pol, res)
		}
	}
}

// TestBatchingAmortization pins the GPU batching economics: under heavy
// load with a hold window, larger MaxBatch amortizes the fixed launch
// cost into higher sustained batch sizes.
func TestBatchingAmortization(t *testing.T) {
	g := testGraph()
	devs := mustMix(t, "cpu2gpu1")
	for i := range devs {
		if devs[i].Class == GPUClass {
			devs[i].HoldUs = 30
		}
	}
	cfg := Config{
		Graph:         g,
		Devices:       devs,
		Policy:        Affinity,
		MeanArrivalMs: ArrivalForUtilization(g, devs, 0.9),
		Requests:      600,
		Seed:          11,
	}
	res := run(t, cfg)
	if res.MeanBatchItems <= 1 {
		t.Errorf("GPU under load with a hold window batched %.2f items/launch, want > 1", res.MeanBatchItems)
	}
}

func TestStealPolicyCountsSteals(t *testing.T) {
	g := testGraph()
	devs := mustMix(t, "cpu4")
	cfg := Config{
		Graph:         g,
		Devices:       devs,
		Policy:        Steal,
		MeanArrivalMs: ArrivalForUtilization(g, devs, 0.9),
		Requests:      600,
		JitterFrac:    0.4,
		Seed:          13,
	}
	res := run(t, cfg)
	if res.Steals == 0 {
		t.Errorf("steal policy under jittery load recorded zero steals")
	}
	cfg.Policy = Affinity
	if got := run(t, cfg); got.Steals != 0 {
		t.Errorf("affinity policy recorded %d steals, want 0", got.Steals)
	}
}

func TestConfigValidateCollectsAll(t *testing.T) {
	cfg := Config{
		Graph:          Graph{Phases: []Phase{{Kind: NumKinds, WorkUs: -1}}},
		Policy:         numPolicies,
		MeanArrivalMs:  -2,
		Requests:       -5,
		WarmupRequests: -9,
		JitterFrac:     7,
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate() = nil for a config wrong in every field")
	}
	for _, want := range []string{
		"invalid kind", "negative work", "no devices", "invalid policy",
		"mean arrival", "negative request count", "warmup", "jitter",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate() error missing %q:\n%v", want, err)
		}
	}
}

func TestConfigValidateIncapableFleet(t *testing.T) {
	cfg := Config{
		Graph:         testGraph(),
		Devices:       []DeviceSpec{PIMDevice()}, // gathers only, graph has MLPs
		MeanArrivalMs: 1,
	}
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "no device can run it") {
		t.Errorf("Validate() = %v, want capability error", err)
	}
}

// TestConfigValidateRejectsNonFinite: every float knob must reject NaN
// and ±Inf. A NaN phase work or arrival gap once passed Validate and
// panicked inside Simulate; a NaN jitter or hold passed silently.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"NaN work", func(c *Config) { c.Graph.Phases[0].WorkUs = nan }},
		{"+Inf work", func(c *Config) { c.Graph.Phases[0].WorkUs = inf }},
		{"NaN speed", func(c *Config) { c.Devices[0].Speed[Gather] = nan }},
		{"+Inf speed", func(c *Config) { c.Devices[0].Speed[Gather] = inf }},
		{"NaN fixed cost", func(c *Config) { c.Devices[0].FixedUs[MLP] = nan }},
		{"+Inf fixed cost", func(c *Config) { c.Devices[0].FixedUs[MLP] = inf }},
		{"NaN hold", func(c *Config) { c.Devices[2].HoldUs = nan }},
		{"+Inf hold", func(c *Config) { c.Devices[2].HoldUs = inf }},
		{"NaN SMT same-kind", func(c *Config) { c.Devices[0].SMTSameKind = nan }},
		{"+Inf SMT same-kind", func(c *Config) { c.Devices[0].SMTSameKind = inf }},
		{"NaN SMT cross-kind", func(c *Config) { c.Devices[0].SMTCrossKind = nan }},
		{"+Inf SMT cross-kind", func(c *Config) { c.Devices[0].SMTCrossKind = inf }},
		{"NaN arrival", func(c *Config) { c.MeanArrivalMs = nan }},
		{"+Inf arrival", func(c *Config) { c.MeanArrivalMs = inf }},
		{"NaN jitter", func(c *Config) { c.JitterFrac = nan }},
		{"-Inf jitter", func(c *Config) { c.JitterFrac = -inf }},
	} {
		cfg := Config{
			Graph:         testGraph(),
			Devices:       mustMix(t, "cpu2gpu1"),
			MeanArrivalMs: 0.2,
			Requests:      40,
		}
		if cfg.Devices[2].Class != GPUClass {
			t.Fatalf("cpu2gpu1 device 2 is %v, want the GPU", cfg.Devices[2].Class)
		}
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}

func TestWarmupConventions(t *testing.T) {
	base := Config{
		Graph:         testGraph(),
		Devices:       mustMix(t, "cpu1"),
		Policy:        Affinity,
		MeanArrivalMs: 0.2,
		Requests:      100,
		Seed:          1,
	}
	cfg := base
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.WarmupRequests != 5 {
		t.Errorf("default warmup = %d, want 5 (5%% of 100)", cfg.WarmupRequests)
	}
	cfg = base
	cfg.WarmupRequests = -1
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.WarmupRequests != 0 {
		t.Errorf("explicit-zero warmup = %d, want 0", cfg.WarmupRequests)
	}
	cfg = base
	cfg.WarmupRequests = 100
	if _, err := Simulate(cfg); err == nil {
		t.Error("warmup == requests accepted, want error")
	}
}

func TestArrivalForUtilization(t *testing.T) {
	g := testGraph()
	devs := mustMix(t, "cpu4")
	arr := ArrivalForUtilization(g, devs, 0.5)
	if arr <= 0 || math.IsInf(arr, 0) {
		t.Fatalf("ArrivalForUtilization = %g", arr)
	}
	// Doubling target utilization halves the inter-arrival gap.
	if got := ArrivalForUtilization(g, devs, 1.0); math.Abs(got-arr/2) > 1e-12 {
		t.Errorf("arrival at util 1.0 = %g, want %g", got, arr/2)
	}
	// Sanity: simulating at the 0.5 sizing lands utilization in a broad
	// band around it — the heuristic is approximate, not exact.
	cfg := Config{Graph: g, Devices: devs, Policy: EFT, MeanArrivalMs: arr, Requests: 800, Seed: 2}
	res := run(t, cfg)
	if res.UtilTotal < 0.2 || res.UtilTotal > 0.85 {
		t.Errorf("sized for ~0.5 utilization, simulated %.2f", res.UtilTotal)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, pol := range AllPolicies {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus")
	}
}

func TestNewMixUnknown(t *testing.T) {
	if _, err := NewMix("toaster"); err == nil {
		t.Error("NewMix accepted unknown mix")
	}
	for _, m := range Mixes {
		devs, err := NewMix(m)
		if err != nil {
			t.Errorf("NewMix(%q): %v", m, err)
			continue
		}
		for i, d := range devs {
			if d.Name == "" {
				t.Errorf("mix %q device %d unnamed", m, i)
			}
			if err := d.validate(i, len(devs)); err != nil {
				t.Errorf("mix %q device %d invalid: %v", m, i, err)
			}
		}
	}
}

// TestEFTPickAfterClampedEstimate: a queue that drains leaves float drift
// in its running estimate (0.1 + 0.2 + 0.3 − 0.1 − 0.2 − 0.3 is 2⁻⁵³,
// not 0), and startBatch clamps it to 0. Two identical idle devices are
// then tied for the next phase and EFT keeps the lower index; without the
// clamp device 0 would look later and the phase would go to device 1.
func TestEFTPickAfterClampedEstimate(t *testing.T) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = false // observe the pick, not the invariant layer
	dev := DeviceSpec{Class: CPUClass, Speed: [NumKinds]float64{Gather: 1, Interact: 1, MLP: 1}, SMTSibling: -1}
	var phases []Phase
	for _, us := range []float64{100, 200, 300, 100} {
		phases = append(phases, Phase{Kind: Gather, WorkUs: us})
	}
	st, err := newSimState(Config{
		Graph:         Graph{Phases: phases},
		Devices:       []DeviceSpec{dev, dev},
		Policy:        EFT,
		MeanArrivalMs: 1,
		Requests:      1,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Queue phases 0–2 on device 0, then serve them one at a time.
	st.busy[0] = true
	for p := range int32(3) {
		st.enqueue(0, p, 0)
	}
	if drift := st.pendEstMs[0] - 0.1 - 0.2 - 0.3; drift <= 0 {
		t.Fatalf("the drained estimate would drift by %g; the test needs a positive drift", drift)
	}
	for range 3 {
		st.busy[0] = false
		st.startBatch(0, st.busyEnd[0], Gather)
	}
	// Device 0 completes; phase 3 becomes ready with both devices idle.
	st.busy[0] = false
	st.ready(3, st.busyEnd[0])
	if !st.busy[0] || st.busy[1] {
		t.Errorf("EFT sent the phase to device 1 (busy %v); the tie goes to device 0", st.busy)
	}
}
