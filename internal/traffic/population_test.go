package traffic

import (
	"math"
	"strings"
	"testing"

	"dlrmsim/internal/stats"
)

// TestVisitorsDeterministic: the user sequence is a pure function of the
// population config.
func TestVisitorsDeterministic(t *testing.T) {
	pop := Population{Users: 1_000_000, RevisitProb: 0.6, Affinity: 0.5, Seed: 3}
	a, err := NewVisitors(pop)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewVisitors(pop)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		ua, va := a.Next()
		ub, vb := b.Next()
		if ua != ub || va != vb {
			t.Fatalf("arrival %d diverged: (%d,%d) vs (%d,%d)", i, ua, va, ub, vb)
		}
	}
}

// TestRevisitFraction: once the recency ring fills, the fraction of
// arrivals that are revisits tracks RevisitProb (fresh draws from a
// million-user population essentially never collide).
func TestRevisitFraction(t *testing.T) {
	for _, p := range []float64{0, 0.3, 0.7} {
		v, err := NewVisitors(Population{Users: 2_000_000, RevisitProb: p, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		const draws = 20000
		revisits := 0
		for i := 0; i < draws; i++ {
			if _, visit := v.Next(); visit > 1 {
				revisits++
			}
		}
		got := float64(revisits) / draws
		if math.Abs(got-p) > 0.02 {
			t.Errorf("RevisitProb %g: revisit fraction %g", p, got)
		}
	}
}

// TestRevisitsConcentrateUsers: with heavy revisiting, far fewer distinct
// users appear than arrivals — the per-user locality the serving tier's
// warm-profile path depends on.
func TestRevisitsConcentrateUsers(t *testing.T) {
	v, err := NewVisitors(Population{Users: 5_000_000, RevisitProb: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const draws = 10000
	users := map[uint64]bool{}
	for i := 0; i < draws; i++ {
		u, _ := v.Next()
		users[u] = true
	}
	if len(users) > draws/2 {
		t.Errorf("%d distinct users over %d arrivals; revisits not concentrating", len(users), draws)
	}
}

// TestProfileStreamPure: a profile slot's stream depends on exactly
// (user, table, slot) — identical keys agree, any coordinate change
// moves the draw.
func TestProfileStreamPure(t *testing.T) {
	pop := Population{Users: 100, Seed: 5}
	base := pop.ProfileStream(42, 3, 7)
	same := pop.ProfileStream(42, 3, 7)
	if a, b := base.Uint64(), same.Uint64(); a != b {
		t.Fatalf("same key diverged: %d vs %d", a, b)
	}
	first := func(r stats.RNG) uint64 { return r.Uint64() }
	ref := first(pop.ProfileStream(42, 3, 7))
	for _, alt := range []stats.RNG{
		pop.ProfileStream(43, 3, 7),
		pop.ProfileStream(42, 4, 7),
		pop.ProfileStream(42, 3, 8),
	} {
		if first(alt) == ref {
			t.Error("neighboring profile key reproduced the draw")
		}
	}
	// A UserProfile derives the per-user key once; its streams are
	// ProfileStream's, at two seeds.
	for _, p := range []Population{pop, {Users: 100, Seed: 9}} {
		prof := p.Profile(42)
		for table := 0; table < 3; table++ {
			for slot := 0; slot < 5; slot++ {
				if a, b := first(prof.Stream(table, slot)), first(p.ProfileStream(42, table, slot)); a != b {
					t.Fatalf("seed %d: Profile(42).Stream(%d, %d) drew %d, ProfileStream %d", p.Seed, table, slot, a, b)
				}
			}
		}
	}
}

// TestPopulationValidate: all violations in one report; a valid
// population's Visitors keep the fixed recency window and profile size.
func TestPopulationValidate(t *testing.T) {
	bad := Population{Users: 0, RevisitProb: -1, Affinity: 2}
	err := bad.Validate()
	if err == nil {
		t.Fatal("accepted a population with three violations")
	}
	for _, want := range []string{"users", "revisit probability", "affinity"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
	good := Population{Users: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("minimal population rejected: %v", err)
	}
	v, err := NewVisitors(good)
	if err != nil {
		t.Fatal(err)
	}
	if v.ProfileSize() != profileSize || len(v.ring) != recentWindow {
		t.Errorf("profile %d ring %d, want %d and %d", v.ProfileSize(), len(v.ring), profileSize, recentWindow)
	}
}
