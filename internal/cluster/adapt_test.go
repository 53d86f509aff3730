package cluster

import (
	"errors"
	"strings"
	"testing"

	"dlrmsim/internal/trace"
)

// TestAdaptEpochGrid drives the epoch-grid state machine directly
// through one full breaker life cycle: closed → open (rate trip) →
// cooldown → half-open → probe → closed, with the budget's cumulative
// deficit check alongside.
func TestAdaptEpochGrid(t *testing.T) {
	m := &Mitigation{
		TimeoutMs: 10, MaxRetries: 1,
		RetryBudget: 0.5, AdaptEpochMs: 100,
		BreakerTripRate: 0.5, BreakerMinSamples: 2, BreakerCooldownMs: 150,
	}
	var ad adaptState
	ad.init(m, 2)

	// Warmup epoch: nothing settled, so the budget denies (0 >= 0.5·0).
	if ad.allowCond(0) || ad.allowCond(1) {
		t.Error("conditional allowed before the first epoch settled")
	}

	// Node 0 answers 4 primaries, all past the timeout.
	for i := 0; i < 4; i++ {
		ad.observe(0, copyPrimary, 25)
	}
	ad.advanceTo(100) // settles the [0,100) epoch
	if !ad.allowCond(1) {
		t.Error("budget denies with 0 conditionals against 4 primaries")
	}
	if ad.allowCond(0) {
		t.Error("breaker stayed closed at a 4/4 slow epoch over min samples")
	}
	if ad.breakers[0].state != breakerOpen || ad.breakers[0].until != 250 {
		t.Fatalf("breaker 0 = %+v, want open until 250", ad.breakers[0])
	}

	// Budget: two conditionals against four primaries hits 0.5 exactly —
	// the comparison is >=, so the budget is spent.
	ad.observe(1, copyHedge, 5)
	ad.observe(1, copyRetry, 5)
	ad.advanceTo(200) // boundary 200 settles; 200 < until, breaker stays open
	if ad.allowCond(1) {
		t.Error("budget allows past RetryBudget·primaries")
	}
	if ad.breakers[0].state != breakerOpen {
		t.Errorf("breaker half-opened before its cooldown (state %d)", ad.breakers[0].state)
	}

	// More primaries re-arm the budget; boundary 300 >= until half-opens.
	for i := 0; i < 8; i++ {
		ad.observe(1, copyPrimary, 5)
	}
	ad.advanceTo(300)
	if ad.breakers[0].state != breakerHalfOpen {
		t.Fatalf("breaker 0 state %d at boundary 300, want half-open", ad.breakers[0].state)
	}
	if !ad.allowCond(0) {
		t.Error("half-open breaker must admit a probe")
	}

	// A fast probe closes it at the next boundary.
	ad.observe(0, copyHedge, 5)
	ad.advanceTo(400)
	if ad.breakers[0].state != breakerClosed {
		t.Errorf("breaker 0 state %d after a fast probe epoch, want closed", ad.breakers[0].state)
	}

	// Open for the [100,200) and [200,300) epochs on one node.
	ad.lastT = 350
	if got := ad.finalize(); got != 200 {
		t.Errorf("finalize() = %g node·ms breaker-open, want 200", got)
	}
}

// TestBudgetSuppressionLowersHedgeRate pins the accounting contract: a
// budget-denied conditional copy was never launched, so it must not
// count in HedgeRate — a starved budget drives the rate itself down,
// not just the served traffic.
func TestBudgetSuppressionLowersHedgeRate(t *testing.T) {
	base := faultConfig(t, trace.HighHot)
	base.Mitigation = Mitigation{HedgeDelayMs: hedgeDelay(t, trace.HighHot)}
	free, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	if free.HedgeRate <= 0 {
		t.Fatal("fixture produced no hedges; the suppression comparison is vacuous")
	}
	capped := base
	capped.Mitigation.RetryBudget = 0.01
	tight, err := Simulate(capped)
	if err != nil {
		t.Fatal(err)
	}
	if tight.HedgeRate > free.HedgeRate/2 {
		t.Errorf("HedgeRate %g under a 1%% budget vs %g unbudgeted: denied hedges are leaking into the rate",
			tight.HedgeRate, free.HedgeRate)
	}
	if tight.RetryAmplification >= free.RetryAmplification {
		t.Errorf("RetryAmplification %g under budget >= %g unbudgeted", tight.RetryAmplification, free.RetryAmplification)
	}
}

// TestMitigationValidateAdaptive: every bad adaptive knob combination is
// rejected, and the zero-means-default resolution only runs when the
// adaptive machinery is on.
func TestMitigationValidateAdaptive(t *testing.T) {
	for name, tc := range map[string]struct {
		m    Mitigation
		want string // "" means valid
	}{
		"budget-hedge":      {Mitigation{HedgeDelayMs: 1, RetryBudget: 0.2}, ""},
		"budget-retries":    {Mitigation{TimeoutMs: 2, MaxRetries: 1, RetryBudget: 0.2}, ""},
		"breaker":           {Mitigation{TimeoutMs: 2, BreakerTripRate: 0.5}, ""},
		"neg-budget":        {Mitigation{HedgeDelayMs: 1, RetryBudget: -0.1}, "retry budget -0.1"},
		"budget-nothing":    {Mitigation{RetryBudget: 0.2}, "needs retries or hedges"},
		"trip-too-big":      {Mitigation{TimeoutMs: 2, BreakerTripRate: 1.5}, "outside (0,1]"},
		"trip-no-timeout":   {Mitigation{HedgeDelayMs: 1, BreakerTripRate: 0.5}, "need a timeout"},
		"knobs-no-trip":     {Mitigation{TimeoutMs: 2, MaxRetries: 1, BreakerMinSamples: 5}, "need a trip rate"},
		"epoch-no-adaptive": {Mitigation{TimeoutMs: 2, MaxRetries: 1, AdaptEpochMs: 8}, "needs a retry budget or breaker"},
		"degraded-alone":    {Mitigation{DegradedJoin: true}, "degraded joins need a timeout"},
	} {
		m := tc.m
		err := errors.Join(m.validateErrs()...)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want mention of %q", name, err, tc.want)
		}
	}

	// Default resolution: epoch from the timeout, cooldown from the epoch.
	m := Mitigation{TimeoutMs: 3, MaxRetries: 1, RetryBudget: 0.2, BreakerTripRate: 0.5}
	if err := errors.Join(m.validateErrs()...); err != nil {
		t.Fatal(err)
	}
	m.applyDefaults()
	if m.AdaptEpochMs != 12 || m.BreakerMinSamples != 10 || m.BreakerCooldownMs != 48 {
		t.Errorf("defaults = epoch %g, min %d, cooldown %g; want 12, 10, 48",
			m.AdaptEpochMs, m.BreakerMinSamples, m.BreakerCooldownMs)
	}

	// Config.Validate must not leak the default resolution.
	cfg := Config{
		Plan:            validPlan(t),
		SamplesPerQuery: 4,
		MeanArrivalMs:   1,
		Timing:          Timing{ColdLookupUs: 0.5},
		Mitigation:      Mitigation{TimeoutMs: 3, MaxRetries: 1, RetryBudget: 0.2},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Mitigation.AdaptEpochMs != 0 {
		t.Errorf("Validate resolved AdaptEpochMs to %g in the caller's config", cfg.Mitigation.AdaptEpochMs)
	}
}
