package memsim_test

import (
	"testing"

	"dlrmsim/internal/memsim"
	"dlrmsim/internal/reuse"
	"dlrmsim/internal/stats"
)

// TestMattsonCrossCheck checks the cache model against an oracle that
// shares no code with it: Mattson's inclusion property. A fully
// associative LRU cache of C lines hits exactly on the accesses whose
// LRU stack distance (reuse.Analyzer) is below C. A one-set memsim cache
// (Ways = C) is fully associative, so on the same random line stream it
// must agree with the analyzer access by access — not merely in hit
// rate, which Analyzer.HitRate interpolates inside log buckets.
func TestMattsonCrossCheck(t *testing.T) {
	const accesses = 200_000
	for _, capLines := range []int{1, 3, 8, 64} {
		c := memsim.NewCache(memsim.CacheConfig{
			Name:      "mattson",
			SizeBytes: int64(capLines) * memsim.LineSize,
			Ways:      capLines,
		})
		if c.NumSets() != 1 || c.CapacityLines() != int64(capLines) {
			t.Fatalf("C=%d: cache has %d sets, %d lines; want one fully associative set", capLines, c.NumSets(), c.CapacityLines())
		}
		an := reuse.NewAnalyzer(accesses)
		// A universe a little over twice the capacity gives every C both
		// hits and capacity misses.
		universe := uint64(2*capLines + 5)
		rng := stats.SeededRNG(stats.SplitSeed(0x3A7750, uint64(capLines)))
		hits, mismatches := 0, 0
		for i := 0; i < accesses; i++ {
			line := rng.Uint64() % universe
			a := memsim.Addr(line * memsim.LineSize)
			dist := an.Access(line)
			want := dist != reuse.ColdDistance && dist < int64(capLines)
			_, hit := c.Lookup(a, true, int64(i))
			if !hit {
				c.Fill(a, int64(i), false)
			} else {
				hits++
			}
			if hit != want {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("C=%d access %d (line %d): cache hit %v, stack distance %d", capLines, i, line, hit, dist)
				}
			}
		}
		if mismatches > 0 {
			t.Errorf("C=%d: %d of %d accesses disagree with the stack-distance oracle", capLines, mismatches, accesses)
		}
		if hits == 0 || hits == accesses {
			t.Errorf("C=%d: %d hits of %d accesses; the stream must exercise both outcomes", capLines, hits, accesses)
		}
	}
}
