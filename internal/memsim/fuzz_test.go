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
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 0, 1, 0, 2, 0, 1}) // tiny cache, a few lines
	f.Add([]byte{8, 32, 0xFF, 0xFF, 0, 0, 0xFF, 0xFF, 1, 0, 2, 0})
	f.Add([]byte{1, 1, 5, 0, 5, 0, 5, 0}) // direct-mapped, repeated line
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		defer func(old bool) { check.Enabled = old }(check.Enabled)
		check.Enabled = true

		ways := int(data[0]%8) + 1
		sizeKB := int64(data[1]%32) + 1
		c := NewCache(CacheConfig{Name: "fuzz", SizeBytes: sizeKB << 10, Ways: ways, LatencyCyc: 1})

		var demandProbes, hits, misses uint64
		resident := map[Addr]bool{}
		for i := 2; i+1 < len(data); i += 2 {
			// Address space bounded to a few× the cache so evictions happen.
			a := Addr(binary.LittleEndian.Uint16(data[i:])) * LineSize
			now := int64(i)
			_, hit := c.Lookup(a, true, now)
			demandProbes++
			if hit {
				hits++
				if !resident[lineOf(a)] {
					t.Fatalf("hit on %#x which was never filled (or was evicted)", a)
				}
			} else {
				misses++
				c.Fill(a, now+10, data[i]&1 == 0)
				if !c.Contains(a) {
					t.Fatalf("line %#x absent immediately after Fill", a)
				}
				if _, h := c.Lookup(a, false, now); !h {
					t.Fatalf("probe missed line %#x immediately after Fill", a)
				}
				resident[lineOf(a)] = true
			}
		}
		if c.Stats.DemandHits != hits || c.Stats.DemandMisses != misses {
			t.Fatalf("accounting drifted: stats %d/%d, observed %d/%d of %d probes",
				c.Stats.DemandHits, c.Stats.DemandMisses, hits, misses, demandProbes)
		}
		if occupied := countResident(c); occupied > c.CapacityLines() {
			t.Fatalf("occupancy %d exceeds capacity %d", occupied, c.CapacityLines())
		}
	})
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
