package cpusim

import (
	"testing"

	"dlrmsim/internal/memsim"
)

func benchCoreParams() CoreParams {
	return CoreParams{
		IssueWidth:       4,
		WindowSize:       224,
		DemandMLP:        7,
		FillBuffers:      13,
		PipelinedLatency: 6,
	}
}

func benchMemParams() memsim.MemParams {
	return memsim.MemParams{
		L1:   memsim.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 5},
		L2:   memsim.CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, LatencyCyc: 14},
		L3:   memsim.CacheConfig{Name: "L3", SizeBytes: 8 << 20, Ways: 11, LatencyCyc: 50},
		DRAM: memsim.DRAMConfig{BaseLatencyCyc: 220, PeakBandwidthBytesPerCyc: 58, QueueSensitivity: 1},
	}
}

// benchOps synthesizes an embedding-shaped instruction mix: pooling loads
// with row-to-row indirection, interleaved software prefetches, and the
// accumulate/store tail of each pooled vector.
func benchOps(n int) []Op {
	ops := make([]Op, 0, n)
	state := uint64(0xDA7A_5EED)
	var row memsim.Addr
	for len(ops) < n {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		row = memsim.LineAddr(memsim.Addr(state % (1 << 26)))
		next := memsim.LineAddr(memsim.Addr((state * 0x9E3779B97F4A7C15) % (1 << 26)))
		ops = append(ops, Op{Kind: OpPrefetch, Addr: next, Hint: memsim.KindPrefetchL1})
		for i := 0; i < 4; i++ {
			ops = append(ops, Op{Kind: OpLoad, Addr: row + memsim.Addr(i)*memsim.LineSize})
		}
		ops = append(ops, Op{Kind: OpCompute, Cost: 2})
		ops = append(ops, Op{Kind: OpStore, Addr: memsim.Addr(1<<30) + memsim.Addr(len(ops)%64)*memsim.LineSize})
	}
	return ops[:n]
}

// BenchmarkCoreStepLoop drives the Core step loop over a fixed synthetic
// stream; one iteration executes the full 16Ki-op stream (single-threaded
// or as an SMT pair over split halves).
func BenchmarkCoreStepLoop(b *testing.B) {
	ops := benchOps(1 << 14)
	half := len(ops) / 2
	b.Run("st", func(b *testing.B) {
		c := newCoreOver(benchCoreParams(), benchMemParams(), true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Run(NewSliceStream(ops))
		}
	})
	b.Run("smt", func(b *testing.B) {
		c := newCoreOver(benchCoreParams(), benchMemParams(), true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Run(NewSliceStream(ops[:half]), NewSliceStream(ops[half:]))
		}
	})
}
