package memsim_test

import (
	"testing"

	"dlrmsim/internal/memsim"
	"dlrmsim/internal/platform"
)

// TestCacheLineArraysPacked pins the host footprint of a simulated line:
// for every platform's L1, L2 and L3, built fresh and grown by Reshape
// from a smaller cache, the line arrays hold at most 16 bytes plus 1 bit
// per line (a 4-byte tag, an 8-byte ready time, a 4-byte stamp and a
// prefetch bit).
func TestCacheLineArraysPacked(t *testing.T) {
	for _, cpu := range platform.All() {
		for _, cfg := range []memsim.CacheConfig{cpu.Mem.L1, cpu.Mem.L2, cpu.Mem.L3} {
			grown := memsim.NewCache(memsim.CacheConfig{Name: "small", SizeBytes: 4 << 10, Ways: 4, LatencyCyc: 1})
			grown.Reshape(cfg)
			for how, c := range map[string]*memsim.Cache{"NewCache": memsim.NewCache(cfg), "grown by Reshape": grown} {
				lines := c.CapacityLines()
				if got := memsim.LineArrayBytes(c); got*8 > lines*(16*8+1) {
					t.Errorf("%s %s (%s): %d bytes of line arrays for %d lines, %.3f per line, want at most 16.125",
						cpu.Name, cfg.Name, how, got, lines, float64(got)/float64(lines))
				}
			}
		}
	}
}
