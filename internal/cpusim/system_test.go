package cpusim

import (
	"testing"

	"dlrmsim/internal/memsim"
)

func testSystemParams(cores int) SystemParams {
	return SystemParams{
		Core:  testCoreParams(),
		Mem:   testMemParams(),
		Cores: cores,
	}
}

// singleWork wraps plain streams as a one-phase CoreWork, for workloads
// without stage structure.
func singleWork(streams ...StreamFactory) CoreWork {
	return CoreWork{Phases: []Phase{{Label: "work", Streams: streams}}}
}

func loadFactory(n int, base memsim.Addr) StreamFactory {
	return func() Stream { return NewSliceStream(coldLoads(n, base)) }
}

func TestSystemSingleCoreMatchesCore(t *testing.T) {
	sys := NewSystem(testSystemParams(1))
	res := sys.Run([]CoreWork{singleWork(loadFactory(100, 0))})
	solo := newTestCore(false).Run(NewSliceStream(coldLoads(100, 0)))
	// Same workload; the system run resolves bandwidth (utilization is
	// tiny for one core) so the times should agree within a few percent.
	ratio := res.Cycles / solo.Cycles
	if ratio < 0.9 || ratio > 1.3 {
		t.Fatalf("system=%g solo=%g", res.Cycles, solo.Cycles)
	}
}

func TestSystemMoreCoresMoreBandwidth(t *testing.T) {
	work := func(n int) []CoreWork {
		w := make([]CoreWork, n)
		for i := range w {
			// Disjoint address regions per core: pure bandwidth demand.
			w[i] = singleWork(loadFactory(400, memsim.Addr(i)<<32))
		}
		return w
	}
	sys1 := NewSystem(testSystemParams(1))
	sys8 := NewSystem(testSystemParams(8))
	r1 := sys1.Run(work(1))
	r8 := sys8.Run(work(8))
	if r8.BandwidthBytesPerCyc <= r1.BandwidthBytesPerCyc {
		t.Fatalf("bandwidth did not scale: 1 core %.2f, 8 cores %.2f B/cyc",
			r1.BandwidthBytesPerCyc, r8.BandwidthBytesPerCyc)
	}
	// Per-batch latency may degrade but must not explode unboundedly.
	if r8.Cycles > 10*r1.Cycles {
		t.Fatalf("8-core run %gx slower than 1-core", r8.Cycles/r1.Cycles)
	}
}

func TestSystemBandwidthUtilizationBounded(t *testing.T) {
	sys := NewSystem(testSystemParams(8))
	w := make([]CoreWork, 8)
	for i := range w {
		w[i] = singleWork(loadFactory(500, memsim.Addr(i)<<32))
	}
	res := sys.Run(w)
	if res.BandwidthUtilization < 0 || res.BandwidthUtilization > 1.01 {
		t.Fatalf("utilization = %g", res.BandwidthUtilization)
	}
}

func TestSystemConstructiveSharing(t *testing.T) {
	// Two cores touching the SAME lines: the second requester should find
	// them in the shared L3, cutting total DRAM traffic versus disjoint
	// working sets.
	shared := NewSystem(testSystemParams(2)).Run([]CoreWork{
		singleWork(loadFactory(200, 0)),
		singleWork(loadFactory(200, 0)),
	})
	disjoint := NewSystem(testSystemParams(2)).Run([]CoreWork{
		singleWork(loadFactory(200, 0)),
		singleWork(loadFactory(200, 1<<32)),
	})
	if shared.DRAMBytes >= disjoint.DRAMBytes {
		t.Fatalf("no constructive sharing: shared=%d disjoint=%d", shared.DRAMBytes, disjoint.DRAMBytes)
	}
}

func TestSystemPerCoreResults(t *testing.T) {
	sys := NewSystem(testSystemParams(3))
	res := sys.Run([]CoreWork{
		singleWork(loadFactory(10, 0)),
		singleWork(loadFactory(100, 1<<32)),
	})
	if len(res.PerCore) != 2 {
		t.Fatalf("per-core results = %d", len(res.PerCore))
	}
	if res.PerCore[1].Cycles <= res.PerCore[0].Cycles {
		t.Fatal("core with 10x work should be slower")
	}
	if res.Cycles != res.PerCore[1].Cycles {
		t.Fatal("system cycles should be the slowest core")
	}
}

func TestSystemHitRateCounters(t *testing.T) {
	sys := NewSystem(testSystemParams(1))
	// One cold miss, time for the fill to land, then 99 L1 hits.
	f := func() Stream {
		ops := []Op{{Kind: OpLoad, Addr: 0x4000}, {Kind: OpCompute, Cost: 300}}
		for i := 0; i < 99; i++ {
			ops = append(ops, Op{Kind: OpLoad, Addr: 0x4000})
		}
		return NewSliceStream(ops)
	}
	res := sys.Run([]CoreWork{singleWork(f)})
	if res.L1HitRate < 0.98 {
		t.Fatalf("L1 hit rate = %g", res.L1HitRate)
	}
	if res.AvgLoadLatency > 10 {
		t.Fatalf("avg load latency = %g", res.AvgLoadLatency)
	}
}

func TestSystemPanicsOnTooMuchWork(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSystem(testSystemParams(1)).Run([]CoreWork{{}, {}})
}

func TestSystemRunIsDeterministic(t *testing.T) {
	run := func() SystemResult {
		sys := NewSystem(testSystemParams(4))
		w := make([]CoreWork, 4)
		for i := range w {
			w[i] = singleWork(loadFactory(100, memsim.Addr(i)<<32))
		}
		return sys.Run(w)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.DRAMBytes != b.DRAMBytes {
		t.Fatalf("nondeterministic: %g/%d vs %g/%d", a.Cycles, a.DRAMBytes, b.Cycles, b.DRAMBytes)
	}
}
