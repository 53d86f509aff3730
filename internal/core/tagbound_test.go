package core

import (
	"math/bits"
	"testing"

	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/nn"
	"dlrmsim/internal/platform"
)

// TestEngineAddressesBelowCacheTagBound works out that no address the
// engine simulates reaches memsim's tag bound on any platform. A cache of
// 2^k sets encodes its tags in 32 bits for addresses below 2^(31+6+k)
// (6 line-offset bits), and panics at and above it; the smallest bound is
// the smallest cache's. The engine's address regions are the embedding
// tables, up to the end of the largest paper-scale model's last table;
// the MLP weights and the cross-network weights, above nn's bases; and
// the per-core buffers, up to the last buffer of the largest core count.
func TestEngineAddressesBelowCacheTagBound(t *testing.T) {
	bound, boundBy, boundCfg := memsim.Addr(1)<<63, "", memsim.CacheConfig{}
	maxCores := 0
	for _, cpu := range platform.All() {
		maxCores = max(maxCores, cpu.Cores*memsim.MaxSockets)
		for _, cfg := range []memsim.CacheConfig{cpu.Mem.L1, cpu.Mem.L2, cpu.Mem.L3} {
			b := memsim.Addr(1) << (31 + bits.TrailingZeros64(memsim.LineSize*uint64(cfg.Sets())))
			if b < bound {
				bound, boundBy, boundCfg = b, cpu.Name+" "+cfg.Name, cfg
			}
		}
	}
	// The formula is the cache's: its last line below the bound is served
	// and the bound itself panics.
	c := memsim.NewCache(boundCfg)
	c.Contains(bound - memsim.LineSize)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: an access at its bound %#x does not panic", boundBy, bound)
			}
		}()
		c.Contains(bound)
	}()

	largest := dlrm.Zoo()[0]
	for _, cfg := range dlrm.Zoo() {
		if cfg.EmbeddingBytes() > largest.EmbeddingBytes() {
			largest = cfg
		}
	}
	last := embedding.NewTypedTable(largest.Tables-1, largest.RowsPerTable, largest.EmbDim, 0, largest.EmbDType)
	var mlpTop, crossTop memsim.Addr
	for _, cfg := range dlrm.Zoo() {
		cfg.Interaction = dlrm.CrossInteraction
		m, err := dlrm.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mlp := range []*nn.MLP{m.Bottom(), m.Top()} {
			// An MLP's base lies within 2^38 of WeightsBase, and layer l
			// starts l<<24 above it.
			top := nn.WeightsBase + 1<<38 + memsim.Addr(mlp.Layers()-1)<<24 + memsim.Addr(mlp.WeightBytes())
			mlpTop = max(mlpTop, top)
		}
		// A cross network starts within 2^24 lines of CrossBase.
		cross := m.Interaction().(nn.CrossInteraction).Net
		crossTop = max(crossTop, nn.CrossBase+1<<24*memsim.LineSize+memsim.Addr(cross.WeightBytes()))
	}
	for _, r := range []struct {
		name string
		top  memsim.Addr
	}{
		{"embedding tables of " + largest.Name, last.RowAddr(int32(largest.RowsPerTable-1)) + memsim.Addr(last.RowBytes())},
		{"MLP weights", mlpTop},
		{"cross-network weights", crossTop},
		{"per-core buffers", bufBase(maxCores-1, 1) + batchRegion},
	} {
		t.Logf("%s end below %#x, %.0fx under the %s bound %#x", r.name, r.top, float64(bound)/float64(r.top), boundBy, bound)
		if r.top > bound {
			t.Errorf("%s reach %#x, past the %s tag bound %#x", r.name, r.top, boundBy, bound)
		}
	}
}
