package memsim

import (
	"encoding/binary"
	"testing"

	"dlrmsim/internal/check"
)

// FuzzCacheAccess drives a small cache with an arbitrary access sequence
// and checks the structural invariants no input may break: a just-filled
// line is resident and hits, a tag is never resident twice in one set
// (check.Assert inside Fill), demand accounting matches the probe count,
// and occupancy never exceeds sets × ways.
//
// The first two bytes give the cache's geometry and the next two a
// second one. The cache serves the first half of the accesses, is
// reshaped to the second geometry, and serves the rest beside a cache
// built fresh with it: every lookup's hit and ready time, and every
// counter, must match the fresh cache's, whether the reshape grew the
// cache, shrank it or changed its ways.
//
// When the first byte's top bit is set, the cache's clock starts 1–8
// ticks (from the second byte's top three bits) below the stamp rebase,
// before each half, and the first half too is served beside a fresh
// cache: every rebase must leave every lookup and counter unchanged.
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{2, 1, 2, 1, 0, 0, 0, 1, 0, 2, 0, 1}) // tiny cache, a few lines
	f.Add([]byte{8, 32, 1, 0, 0xFF, 0xFF, 0, 0, 0xFF, 0xFF, 1, 0, 2, 0, 0xFF, 0xFF, 0, 0})
	f.Add([]byte{1, 1, 7, 31, 5, 0, 5, 0, 5, 0, 5, 0})            // direct-mapped, repeated line, then grown
	f.Add([]byte{3, 9, 5, 9, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 0}) // same size, other ways
	// Near the rebase: in one set of a 2-way cache, two lines filled
	// before it, two after, then the first of those again; then the same
	// in a 4-way cache, where the rebase lands amid more lines.
	f.Add([]byte{0x81, 0x60, 0x81, 0x60, 0, 0, 8, 0, 16, 0, 24, 0, 16, 0, 8, 0, 0, 0, 24, 0, 0, 0, 8, 0, 16, 0, 24, 0, 16, 0, 8, 0, 0, 0, 24, 0})
	f.Add([]byte{0x83, 0x60, 0x83, 0xE0, 0, 0, 8, 0, 16, 0, 24, 0, 32, 0, 40, 0, 32, 0, 8, 0, 0, 0, 8, 0, 16, 0, 24, 0, 32, 0, 40, 0, 32, 0, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		defer func(old bool) { check.Enabled = old }(check.Enabled)
		check.Enabled = true

		a, b := fuzzGeometry(data[0], data[1]), fuzzGeometry(data[2], data[3])
		c := NewCache(a)
		ops := data[4:]
		half := len(ops) / 2 &^ 1
		var twin *Cache // the first half runs beside one only near the rebase
		nearRebase, ticks := data[0]&0x80 != 0, uint32(data[1]>>5)+1
		if nearRebase {
			twin = NewCache(a)
			raiseClock(t, c, ticks)
		}
		serveFuzz(t, c, twin, ops[:half])
		c.Reshape(b)
		if nearRebase {
			raiseClock(t, c, ticks)
		}
		serveFuzz(t, c, NewCache(b), ops[half:])
	})
}

// fuzzGeometry maps two bytes to a cache of 1–8 ways and 1–32 KiB.
func fuzzGeometry(ways, sizeKB byte) CacheConfig {
	return CacheConfig{Name: "fuzz", SizeBytes: (int64(sizeKB%32) + 1) << 10, Ways: int(ways%8) + 1, LatencyCyc: 1}
}

// serveFuzz serves ops, two bytes an access, on c and checks the
// structural invariants. A non-nil twin serves the same accesses, and c
// must match it access for access.
func serveFuzz(t *testing.T, c, twin *Cache, ops []byte) {
	t.Helper()
	var demandProbes, hits, misses uint64
	resident := map[Addr]bool{}
	for i := 0; i+1 < len(ops); i += 2 {
		// Address space bounded to a few× the cache so evictions happen.
		a := Addr(binary.LittleEndian.Uint16(ops[i:])) * LineSize
		now := int64(i)
		readyAt, hit := c.Lookup(a, true, now)
		if twin != nil {
			if wantAt, wantHit := twin.Lookup(a, true, now); readyAt != wantAt || hit != wantHit {
				t.Fatalf("access %d to %#x: cache reads (%d, %v), fresh cache (%d, %v)", i/2, a, readyAt, hit, wantAt, wantHit)
			}
		}
		demandProbes++
		if hit {
			hits++
			if !resident[lineOf(a)] {
				t.Fatalf("hit on %#x which was never filled (or was evicted)", a)
			}
		} else {
			misses++
			c.Fill(a, now+10, ops[i]&1 == 0)
			if twin != nil {
				twin.Fill(a, now+10, ops[i]&1 == 0)
			}
			if !c.Contains(a) {
				t.Fatalf("line %#x absent immediately after Fill", a)
			}
			if _, h := c.Lookup(a, false, now); !h {
				t.Fatalf("probe missed line %#x immediately after Fill", a)
			}
			if twin != nil {
				twin.Lookup(a, false, now)
			}
			resident[lineOf(a)] = true
		}
		if twin != nil && c.Stats != twin.Stats {
			t.Fatalf("access %d: cache's stats %+v, fresh cache's %+v", i/2, c.Stats, twin.Stats)
		}
	}
	if c.Stats.DemandHits != hits || c.Stats.DemandMisses != misses {
		t.Fatalf("accounting drifted: stats %d/%d, observed %d/%d of %d probes",
			c.Stats.DemandHits, c.Stats.DemandMisses, hits, misses, demandProbes)
	}
	if occupied := countResident(c); occupied > c.CapacityLines() {
		t.Fatalf("occupancy %d exceeds capacity %d", occupied, c.CapacityLines())
	}
	if twin != nil && (c.NumSets() != twin.NumSets() || c.CapacityLines() != twin.CapacityLines()) {
		t.Fatalf("reshaped geometry %d sets × %d lines, fresh %d × %d", c.NumSets(), c.CapacityLines(), twin.NumSets(), twin.CapacityLines())
	}
}

// lineOf truncates an address to its line base.
func lineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// countResident counts valid lines: the sum of every set's valid-way
// count, whatever leftover tags the ways beyond it hold.
func countResident(c *Cache) int64 {
	var n int64
	for _, v := range c.valid {
		n += int64(v)
	}
	return n
}
