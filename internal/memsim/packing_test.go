package memsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dlrmsim/internal/check"
)

// raiseClock is the hook the rebase tests start from: it moves c's clock
// to ticks below clockLimit, so the hit or fill ticks+1 from now rebases
// the stamps. Raising the clock is exact at any time, since every stamp
// stays below it; lowering it is not, and fails the test.
func raiseClock(t *testing.T, c *Cache, ticks uint32) {
	t.Helper()
	to := uint32(clockLimit) - ticks
	if to < c.clock {
		t.Fatalf("%s: raising the clock from %d to %d would lower it", c.cfg.Name, c.clock, to)
	}
	c.clock = to
}

// TestCacheClockRebaseMatchesReference runs random lookups, fills,
// carried-probe fills and refreshes across many clock rebases, beside the
// 64-bit-stamp reference, which never rebases. Every thousand steps
// the cache's clock is raised to a few hundred ticks below the rebase,
// so the rebase lands on sets in every state. Every lookup's hit, ready
// time and line index, every set's lines (so every victim) and every
// counter must match the reference's.
func TestCacheClockRebaseMatchesReference(t *testing.T) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = true
	geoms := []CacheConfig{
		{Name: "direct", SizeBytes: 4 * LineSize, Ways: 1, LatencyCyc: 1},
		{Name: "2x2", SizeBytes: 2 * 2 * LineSize, Ways: 2, LatencyCyc: 1},
		{Name: "4x11", SizeBytes: 4 * 11 * LineSize, Ways: 11, LatencyCyc: 1},
		{Name: "1x16", SizeBytes: 16 * LineSize, Ways: 16, LatencyCyc: 1},
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			c, ref := NewCache(g), newRefCache(g)
			rng := rand.New(rand.NewSource(seed))
			addr := func() Addr { return Addr(rng.Intn(3*len(c.tags))) * LineSize }
			rebases := 0
			for step := 0; step < 20000; step++ {
				if step%1000 == 0 {
					raiseClock(t, c, uint32(100+rng.Intn(400)))
				}
				if rng.Intn(5000) == 0 {
					c.Reset()
					ref.reset()
				}
				before := c.clock
				now := int64(step)
				a, demand := addr(), rng.Intn(4) != 0
				p := c.setBase(a)
				rb, rw := ref.setBase(a)
				i, readyAt, hit := c.lookupAt(p, demand, now)
				ri, refReady, refHit := ref.lookupAt(rb, rw, demand, now)
				if hit != refHit || readyAt != refReady || i != ri {
					t.Fatalf("%s seed %d step %d: lookup of %#x reads (%d, %d, %v), reference (%d, %d, %v)",
						g.Name, seed, step, a, i, readyAt, hit, ri, refReady, refHit)
				}
				fillAt := now + int64(rng.Intn(300))
				switch {
				case hit && rng.Intn(3) == 0:
					c.refreshAt(i, fillAt)
					ref.refreshAt(ri, fillAt)
				case !hit:
					// Other traffic between the lookup and its fill makes
					// the carried probe stale, as a prefetch walk does.
					for k := rng.Intn(3); k > 0; k-- {
						b, pf := addr(), rng.Intn(2) == 0
						_, h := c.Lookup(b, true, now)
						if refH := ref.lookup(b, now); h != refH {
							t.Fatalf("%s seed %d step %d: lookup of %#x hits %v, reference %v", g.Name, seed, step, b, h, refH)
						}
						if !h {
							c.Fill(b, fillAt, pf)
							ref.fill(b, fillAt, pf)
						}
					}
					pf := rng.Intn(3) == 0
					c.fillAt(p, fillAt, pf)
					ref.fillAt(rb, rw, fillAt, pf)
				}
				if c.clock < before {
					rebases++
				}
				compareCache(t, step, c, ref, false)
			}
			if rebases < 10 {
				t.Fatalf("%s seed %d: %d rebases in the run, want at least 10", g.Name, seed, rebases)
			}
		}
	}
}

// lookup is Cache.Lookup of a demand access on the reference: it reports
// whether a's line hit.
func (c *refCache) lookup(a Addr, now int64) bool {
	base, want := c.setBase(a)
	_, _, hit := c.lookupAt(base, want, true, now)
	return hit
}

// TestHierarchyAcrossClockRebaseMatchesReference is
// TestHierarchyMatchesFullRescanReference with every level's clock raised
// to a few hundred ticks below the rebase every 1500 accesses: the
// stale-probe fills of the hierarchy's prefetch walks cross rebases, and
// every access's result and every level's lines and counters must still
// match the reference's.
func TestHierarchyAcrossClockRebaseMatchesReference(t *testing.T) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = true
	kinds := []AccessKind{KindLoad, KindLoad, KindLoad, KindStore, KindPrefetchL1, KindPrefetchL2, KindPrefetchL3}
	for seed := int64(1); seed <= 3; seed++ {
		o := newOraclePair(t, oracleParams())
		o.rebasing = true
		levels := []*Cache{o.h.L1, o.h.L2, o.h.shared.L3}
		rebases := make([]int, len(levels))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20000; i++ {
			if i%1500 == 0 {
				for _, c := range levels {
					raiseClock(t, c, uint32(100+rng.Intn(400)))
				}
			}
			var before [3]uint32
			for l, c := range levels {
				before[l] = c.clock
			}
			a := Addr(rng.Intn(96))*LineSize + Addr(rng.Intn(3))<<20
			o.access(a, kinds[rng.Intn(len(kinds))])
			for l, c := range levels {
				if c.clock < before[l] {
					rebases[l]++
				}
			}
		}
		for l, n := range rebases {
			if n < 5 {
				t.Fatalf("seed %d: %s rebased %d times, want at least 5", seed, levels[l].cfg.Name, n)
			}
		}
	}
}

// TestCacheTagOverflowPanics holds setBase's guard: a 64-set cache (tag
// shift 12) serves every line below 2^43, keeping its top tags apart, and
// every access at or above 2^43 panics with a message naming the cache,
// the address and the bound.
func TestCacheTagOverflowPanics(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 5})
	if c.NumSets() != 64 {
		t.Fatalf("%d sets, want 64", c.NumSets())
	}
	const bound = Addr(1) << 43
	top := bound - LineSize
	near := top - 1<<42 // same set, tag 2^30 lower
	c.Fill(top, 1, false)
	c.Fill(near, 2, false)
	for _, l := range []struct {
		a     Addr
		ready int64
	}{{top, 1}, {near, 2}} {
		if readyAt, hit := c.Lookup(l.a, true, 0); !hit || readyAt != l.ready {
			t.Fatalf("lookup of %#x reads (%d, %v), want (%d, true)", l.a, readyAt, hit, l.ready)
		}
	}
	if c.Contains(top & (1<<32 - 1)) {
		t.Fatalf("the line at %#x aliases one at its low 32 bits", top)
	}
	for _, a := range []Addr{bound, bound + 5*LineSize + 3, ^Addr(0)} {
		want := fmt.Sprintf("memsim: L1D: address %#x is at or above 2^43", uint64(a))
		for name, access := range map[string]func(){
			"Lookup":   func() { c.Lookup(a, true, 0) },
			"Fill":     func() { c.Fill(a, 0, false) },
			"Contains": func() { c.Contains(a) },
		} {
			if got := panicMessage(access); !strings.Contains(got, want) {
				t.Errorf("%s(%#x) panics with %q, want it to contain %q", name, a, got, want)
			}
		}
	}
}

// panicMessage runs f and returns the message of the error it panics
// with, or "" when it does not panic.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
