package traffic

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// drawUntil collects every arrival strictly before horizon.
func drawUntil(t *testing.T, cfg Config, horizon float64) []float64 {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for {
		a := s.Next()
		if a >= horizon {
			return out
		}
		out = append(out, a)
	}
}

// TestPoissonEmpiricalRate: the empirical rate of a plain Poisson stream
// is within tolerance of the configured λ, table-driven across rates and
// seeds. With ~λ·T arrivals the relative standard error is 1/sqrt(λ·T),
// so the 5% tolerance sits several sigma out at every row.
func TestPoissonEmpiricalRate(t *testing.T) {
	for _, tc := range []struct {
		rate    float64
		horizon float64
		seed    uint64
	}{
		{0.5, 40000, 1},
		{2, 10000, 1},
		{2, 10000, 7},
		{8, 2500, 0xBEEF},
		{20, 1000, 3},
	} {
		arr := drawUntil(t, Config{Model: Poisson, RatePerMs: tc.rate, Seed: tc.seed}, tc.horizon)
		got := float64(len(arr)) / tc.horizon
		if rel := math.Abs(got-tc.rate) / tc.rate; rel > 0.05 {
			t.Errorf("rate %g seed %d: empirical rate %g off by %.1f%%", tc.rate, tc.seed, got, 100*rel)
		}
	}
}

// TestMMPPEmpiricalRates splits arrivals by the stream's own burst
// windows: inside them the empirical rate must match λ·BurstFactor,
// outside plain λ — the two-state process really runs at two rates, and
// exactly where the seeded windows say.
func TestMMPPEmpiricalRates(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		cfg := Config{
			Model: MMPP, RatePerMs: 4, BurstFactor: 4,
			BurstEveryMs: 120, BurstMeanMs: 60, Seed: seed,
		}
		const horizon = 20000.0
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var inside, outside int
		for {
			a := s.Next()
			if a >= horizon {
				break
			}
			if _, on := s.burst.At(a); on {
				inside++
			} else {
				outside++
			}
		}
		var burstMs float64
		for _, w := range s.BurstWindows(horizon) {
			end := math.Min(w.End, horizon)
			if end > w.Start {
				burstMs += end - w.Start
			}
		}
		calmMs := horizon - burstMs
		if burstMs < 1000 || calmMs < 1000 {
			t.Fatalf("seed %d: degenerate split burst=%.0f ms calm=%.0f ms", seed, burstMs, calmMs)
		}
		burstRate := float64(inside) / burstMs
		calmRate := float64(outside) / calmMs
		wantBurst := cfg.RatePerMs * cfg.BurstFactor
		if rel := math.Abs(burstRate-wantBurst) / wantBurst; rel > 0.10 {
			t.Errorf("seed %d: burst-state rate %g, want %g (off %.1f%%)", seed, burstRate, wantBurst, 100*rel)
		}
		if rel := math.Abs(calmRate-cfg.RatePerMs) / cfg.RatePerMs; rel > 0.10 {
			t.Errorf("seed %d: calm-state rate %g, want %g (off %.1f%%)", seed, calmRate, cfg.RatePerMs, 100*rel)
		}
	}
}

// TestBurstWindowsSeeded: episode windows are a pure function of the
// seed — two streams agree window for window, a different seed moves
// them — and every window is positive, ordered, and disjoint.
func TestBurstWindowsSeeded(t *testing.T) {
	cfg := Config{Model: MMPP, RatePerMs: 1, BurstFactor: 3, BurstEveryMs: 100, BurstMeanMs: 40, Seed: 9}
	a, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.BurstWindows(5000), b.BurstWindows(5000)
	if len(wa) == 0 {
		t.Fatal("no burst windows materialized over 5000 ms")
	}
	if len(wa) != len(wb) {
		t.Fatalf("same seed produced %d vs %d windows", len(wa), len(wb))
	}
	prevEnd := 0.0
	for i := range wa {
		if wa[i] != wb[i] {
			t.Errorf("window %d differs between same-seed streams: %v vs %v", i, wa[i], wb[i])
		}
		if wa[i].Start < prevEnd || wa[i].End <= wa[i].Start {
			t.Errorf("window %d not ordered/positive: %v (prev end %g)", i, wa[i], prevEnd)
		}
		prevEnd = wa[i].End
	}
	cfg.Seed = 10
	c, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wc := c.BurstWindows(5000); len(wc) == len(wa) && wc[0] == wa[0] {
		t.Error("different seed reproduced the first burst window")
	}
}

// TestInterArrivalMonotone: arrivals are strictly increasing and finite
// for every model, across seeds.
func TestInterArrivalMonotone(t *testing.T) {
	configs := []Config{
		{Model: Poisson, RatePerMs: 3},
		{Model: MMPP, RatePerMs: 3, BurstFactor: 5, BurstEveryMs: 50, BurstMeanMs: 20},
		{Model: Poisson, RatePerMs: 3, DayMs: 500, DiurnalAmp: 0.7,
			FlashEveryMs: 400, FlashMeanMs: 50, FlashFactor: 6},
	}
	for _, cfg := range configs {
		for _, seed := range []uint64{1, 2, 0xD1CE} {
			cfg.Seed = seed
			s, err := NewStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prev := 0.0
			for i := 0; i < 5000; i++ {
				a := s.Next()
				if !(a > prev) || math.IsInf(a, 0) || math.IsNaN(a) {
					t.Fatalf("%v seed %d: arrival %d = %g not after %g", cfg.Model, seed, i, a, prev)
				}
				prev = a
			}
		}
	}
}

// TestDiurnalShape: the rate function hits its trough at t = 0 and its
// peak mid-day, and the arrival mass follows — the mid-day half of a day
// carries more arrivals than the overnight half.
func TestDiurnalShape(t *testing.T) {
	cfg := Config{Model: Poisson, RatePerMs: 5, DayMs: 4000, DiurnalAmp: 0.6, Seed: 1}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.RateAt(0), cfg.RatePerMs*(1-cfg.DiurnalAmp); math.Abs(got-want) > 1e-12 {
		t.Errorf("trough rate %g, want %g", got, want)
	}
	if got, want := s.RateAt(cfg.DayMs/2), cfg.RatePerMs*(1+cfg.DiurnalAmp); math.Abs(got-want) > 1e-12 {
		t.Errorf("peak rate %g, want %g", got, want)
	}
	if got := s.PeakRate(); got < cfg.RatePerMs*(1+cfg.DiurnalAmp) {
		t.Errorf("peak envelope %g below the diurnal maximum", got)
	}
	arr := drawUntil(t, cfg, cfg.DayMs)
	var night, day int
	for _, a := range arr {
		if a < cfg.DayMs/4 || a >= 3*cfg.DayMs/4 {
			night++
		} else {
			day++
		}
	}
	if day <= night {
		t.Errorf("mid-day half carried %d arrivals vs %d overnight; diurnal ramp inverted", day, night)
	}
}

// TestStreamDeterministicAndQueryIndependent: two same-config streams are
// arrival-for-arrival identical, and interleaving RateAt/window queries
// (which lazily materialize episode state) must not perturb the sequence.
func TestStreamDeterministicAndQueryIndependent(t *testing.T) {
	cfg := Config{
		Model: MMPP, RatePerMs: 2, BurstFactor: 3, BurstEveryMs: 80, BurstMeanMs: 30,
		DayMs: 1000, DiurnalAmp: 0.4, FlashEveryMs: 600, FlashMeanMs: 40, FlashFactor: 4,
		Seed: 0xFEED,
	}
	a, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.RateAt(5000) // force deep episode materialization up front
	b.BurstWindows(2000)
	b.FlashWindows(2000)
	for i := 0; i < 4000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("arrival %d diverged: %g vs %g", i, x, y)
		}
		if i%97 == 0 {
			b.RateAt(x * 1.5) // interleaved non-monotone queries
		}
	}
}

// TestConfigValidate: every violation is reported, and misplaced knobs
// for disabled features are errors rather than silently ignored.
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero rate", Config{Model: Poisson}, "arrival rate"},
		{"bad model", Config{Model: Model(9), RatePerMs: 1}, "invalid arrival model"},
		{"mmpp without factor", Config{Model: MMPP, RatePerMs: 1, BurstEveryMs: 1, BurstMeanMs: 1}, "burst factor"},
		{"mmpp without dwells", Config{Model: MMPP, RatePerMs: 1, BurstFactor: 2}, "dwell times"},
		{"poisson with burst knobs", Config{Model: Poisson, RatePerMs: 1, BurstFactor: 2}, "need the mmpp"},
		{"amp out of range", Config{Model: Poisson, RatePerMs: 1, DayMs: 10, DiurnalAmp: 1}, "amplitude"},
		{"amp without day", Config{Model: Poisson, RatePerMs: 1, DiurnalAmp: 0.5}, "day period"},
		{"negative day", Config{Model: Poisson, RatePerMs: 1, DayMs: -5}, "diurnal period"},
		{"flash without duration", Config{Model: Poisson, RatePerMs: 1, FlashEveryMs: 5, FlashFactor: 2}, "mean duration"},
		{"flash factor below 1", Config{Model: Poisson, RatePerMs: 1, FlashEveryMs: 5, FlashMeanMs: 1, FlashFactor: 0.5}, "flash factor"},
		{"flash knobs without interval", Config{Model: Poisson, RatePerMs: 1, FlashFactor: 2}, "flash interval"},
	} {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
	good := Config{Model: MMPP, RatePerMs: 1, BurstFactor: 2, BurstEveryMs: 10, BurstMeanMs: 5,
		DayMs: 100, DiurnalAmp: 0.3, FlashEveryMs: 50, FlashMeanMs: 5, FlashFactor: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("full valid config rejected: %v", err)
	}
}

// TestConfigValidateRejectsNonFinite: a NaN or infinite knob must be
// rejected, not accepted — a NaN rate left Next's thinning loop unable
// to accept any candidate, so the stream never returned.
func TestConfigValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	good := Config{Model: MMPP, RatePerMs: 1, BurstFactor: 2, BurstEveryMs: 10, BurstMeanMs: 5,
		DayMs: 100, DiurnalAmp: 0.3, FlashEveryMs: 50, FlashMeanMs: 5, FlashFactor: 3}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"NaN rate", func(c *Config) { c.RatePerMs = nan }},
		{"+Inf rate", func(c *Config) { c.RatePerMs = inf }},
		{"NaN burst factor", func(c *Config) { c.BurstFactor = nan }},
		{"+Inf burst factor", func(c *Config) { c.BurstFactor = inf }},
		{"NaN burst every", func(c *Config) { c.BurstEveryMs = nan }},
		{"+Inf burst every", func(c *Config) { c.BurstEveryMs = inf }},
		{"NaN burst mean", func(c *Config) { c.BurstMeanMs = nan }},
		{"+Inf burst mean", func(c *Config) { c.BurstMeanMs = inf }},
		{"NaN day", func(c *Config) { c.DayMs = nan }},
		{"+Inf day", func(c *Config) { c.DayMs = inf }},
		{"NaN diurnal amplitude", func(c *Config) { c.DiurnalAmp = nan }},
		{"-Inf diurnal amplitude", func(c *Config) { c.DiurnalAmp = -inf }},
		{"NaN flash every", func(c *Config) { c.FlashEveryMs = nan }},
		{"+Inf flash every", func(c *Config) { c.FlashEveryMs = inf }},
		{"NaN flash every, flash off", func(c *Config) { c.FlashEveryMs, c.FlashMeanMs, c.FlashFactor = nan, 0, 0 }},
		{"NaN flash mean", func(c *Config) { c.FlashMeanMs = nan }},
		{"+Inf flash mean", func(c *Config) { c.FlashMeanMs = inf }},
		{"NaN flash factor", func(c *Config) { c.FlashFactor = nan }},
		{"+Inf flash factor", func(c *Config) { c.FlashFactor = inf }},
	} {
		cfg := good
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, cfg)
		}
	}
	for _, pop := range []Population{
		{Users: 10, RevisitProb: nan},
		{Users: 10, RevisitProb: inf},
		{Users: 10, Affinity: nan},
		{Users: 10, Affinity: -inf},
	} {
		if err := pop.Validate(); err == nil {
			t.Errorf("accepted population %+v", pop)
		}
	}
}

// terminationProbes are streams whose Next once never returned: a
// thinning peak that overflows to +Inf (the acceptance coin never lands
// below the rate), and candidate clocks that overflow to +Inf, where a
// diurnal rate is NaN. reject marks the ones Validate must refuse.
var terminationProbes = []struct {
	name   string
	cfg    Config
	reject bool
}{
	{"mmpp peak overflows", Config{Model: MMPP, RatePerMs: 1e200, BurstFactor: 1e200, BurstEveryMs: 10, BurstMeanMs: 1, Seed: 1}, true},
	{"flash peak overflows", Config{RatePerMs: 1e300, FlashEveryMs: 10, FlashMeanMs: 1, FlashFactor: 1e10, Seed: 1}, true},
	{"subnormal diurnal rate", Config{RatePerMs: 1e-320, DayMs: 100, DiurnalAmp: 0.5, Seed: 1}, false},
	{"tiny diurnal rate", Config{RatePerMs: 1e-306, DayMs: 100, DiurnalAmp: 0.5, Seed: 1}, false},
	{"tiny poisson rate", Config{RatePerMs: 1e-307, Seed: 1}, false},
}

// TestStreamProbesTerminate: each probe is rejected by Validate, or its
// first 200 arrivals return, strictly increasing while finite, with
// +Inf absorbing once the clock reaches it.
func TestStreamProbesTerminate(t *testing.T) {
	for _, p := range terminationProbes {
		s, err := NewStream(p.cfg)
		if (err != nil) != p.reject {
			t.Errorf("%s: NewStream error %v, want rejected=%v", p.name, err, p.reject)
			continue
		}
		if err != nil {
			continue
		}
		done := make(chan error, 1)
		go func() {
			prev := 0.0
			for i := 0; i < 200; i++ {
				a := s.Next()
				if math.IsNaN(a) || !(a > prev || math.IsInf(prev, 1) && math.IsInf(a, 1)) {
					done <- fmt.Errorf("arrival %d = %g after %g", i, a, prev)
					return
				}
				prev = a
			}
			if !math.IsInf(prev, 1) {
				done <- fmt.Errorf("arrival 199 = %g, want the clock to have overflowed to +Inf", prev)
				return
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", p.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: 200 arrivals still drawing after 10 s", p.name)
		}
	}
}

// TestParseModel round-trips the CLI spellings.
func TestParseModel(t *testing.T) {
	for _, m := range []Model{Poisson, MMPP} {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("weibull"); err == nil {
		t.Error("accepted unknown model")
	}
}
