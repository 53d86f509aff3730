package cpusim

import (
	"math"
	"testing"

	"dlrmsim/internal/memsim"
)

// Simulator self-validation: classic microbenchmarks driven through the
// timing model must recover the hardware parameters they were configured
// with. These are the sanity anchors behind every figure the repository
// reproduces.

// pointerChase emits n serialized loads: each load is followed by enough
// window pressure (window=2 core) to expose full latency. We model the
// dependency by running on a core with WindowSize=2 so no two misses
// overlap.
func chaseCore(mp memsim.MemParams) *Core {
	p := testCoreParams()
	p.WindowSize = 2 // serialize: the next load can't issue past an incomplete one
	return NewCore(p, memsim.NewHierarchy(mp, memsim.NewShared(mp)))
}

func TestValidateDRAMLatencyRecovered(t *testing.T) {
	// A single cold load followed by the stream-end drain measures the
	// full miss latency: L3 (50) + DRAM base (200).
	mp := testMemParams()
	res := chaseCore(mp).Run(NewSliceStream(coldLoads(1, 0)))
	if res.Cycles < 250 || res.Cycles > 252 {
		t.Fatalf("cold-load completion = %.2f cycles, configured 250", res.Cycles)
	}
}

func TestValidateWindow2ChaseFloorsAtHalfLatency(t *testing.T) {
	// The model has no explicit data dependencies: a new load issues and
	// *then* the window stall applies, so the tightest serialization a
	// WindowSize=2 core can express keeps two misses in flight —
	// latency/2 per step. This pins down that documented behavior.
	mp := testMemParams()
	const n = 200
	var ops []Op
	for i := 0; i < n; i++ {
		ops = append(ops,
			Op{Kind: OpLoad, Addr: memsim.Addr(i) * 8192},
			Op{Kind: OpCompute, Cost: 0})
	}
	res := chaseCore(mp).Run(NewSliceStream(ops))
	perMiss := res.Cycles / n
	if perMiss < 115 || perMiss > 140 {
		t.Fatalf("window-2 chase cost = %.1f cycles/step, want ~125 (latency/2)", perMiss)
	}
}

func TestValidateL1LatencyRecovered(t *testing.T) {
	mp := testMemParams()
	core := chaseCore(mp)
	// Warm a line then chase it: per-access cost ≈ issue only (hits are
	// pipelined below PipelinedLatency).
	ops := []Op{{Kind: OpLoad, Addr: 0}, {Kind: OpCompute, Cost: 300}}
	for i := 0; i < 100; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: 0})
	}
	res := core.Run(NewSliceStream(ops))
	hier := core.Hierarchy()
	// All but the first access hit L1.
	if hits := hier.L1.Stats.DemandHits; hits != 100 {
		t.Fatalf("L1 hits = %d", hits)
	}
	perHit := (res.Cycles - 300 - 250) / 100
	if perHit > 2 {
		t.Fatalf("L1-hit loop cost %.2f cycles per access, want ~issue-bound", perHit)
	}
}

func TestValidateStreamingBandwidthBounded(t *testing.T) {
	// A pure streaming read at full MLP cannot exceed the configured
	// DRAM peak, and should get reasonably close to the per-core fill
	// limit min(peak, MLP×64/latency).
	mp := testMemParams()
	sys := NewSystem(SystemParams{Core: testCoreParams(), Mem: mp, Cores: 1})
	res := sys.Run([]CoreWork{singleWork(loadFactory(4000, 0))})
	peak := mp.DRAM.PeakBandwidthBytesPerCyc
	if res.BandwidthBytesPerCyc > peak {
		t.Fatalf("realized %.2f B/cyc exceeds peak %.2f", res.BandwidthBytesPerCyc, peak)
	}
	mlpLimit := float64(testCoreParams().DemandMLP) * memsim.LineSize / 250
	if res.BandwidthBytesPerCyc < 0.5*math.Min(peak, mlpLimit) {
		t.Fatalf("realized %.2f B/cyc far below the %.2f fill limit",
			res.BandwidthBytesPerCyc, math.Min(peak, mlpLimit))
	}
}

func TestValidateMLPRecovered(t *testing.T) {
	// With a huge window and independent misses, sustained misses per
	// unit time ≈ DemandMLP / missLatency.
	mp := testMemParams()
	p := testCoreParams()
	p.DemandMLP = 8
	p.FillBuffers = 10
	core := NewCore(p, memsim.NewHierarchy(mp, memsim.NewShared(mp)))
	const n = 800
	res := core.Run(NewSliceStream(coldLoads(n, 0)))
	effMLP := float64(n) * 250 / res.Cycles
	if effMLP < 6.5 || effMLP > 9.5 {
		t.Fatalf("effective MLP = %.2f, configured 8", effMLP)
	}
}

func TestValidateIssueWidthRecovered(t *testing.T) {
	mp := testMemParams()
	p := testCoreParams()
	p.IssueWidth = 4
	core := NewCore(p, memsim.NewHierarchy(mp, memsim.NewShared(mp)))
	// 4000 zero-cost compute ops: time ≈ n / width.
	res := core.Run(NewSliceStream(computeOps(4000, 0)))
	ipc := 4000 / res.Cycles
	if math.Abs(ipc-4) > 0.2 {
		t.Fatalf("IPC = %.2f, configured width 4", ipc)
	}
}

// TestValidateRooflineLowerBound: any simulated embedding-like run must
// take at least max(bytes/peakBW, issueTime) — the roofline bound. If the
// simulator ever beats it, the timing model is broken.
func TestValidateRooflineLowerBound(t *testing.T) {
	mp := testMemParams()
	sys := NewSystem(SystemParams{Core: testCoreParams(), Mem: mp, Cores: 2})
	mk := func(core int) CoreWork {
		return singleWork(loadFactory(2000, memsim.Addr(core)<<32))
	}
	res := sys.Run([]CoreWork{mk(0), mk(1)})
	bwBound := float64(res.DRAMBytes) / mp.DRAM.PeakBandwidthBytesPerCyc
	issueBound := 2000.0 / testCoreParams().IssueWidth
	lower := math.Max(bwBound, issueBound)
	if res.Cycles < lower {
		t.Fatalf("simulated %.0f cycles beats the roofline bound %.0f", res.Cycles, lower)
	}
}

// TestValidateSMTThroughputCeiling: two SMT threads can never exceed the
// core's single-thread issue throughput.
func TestValidateSMTThroughputCeiling(t *testing.T) {
	one := newTestCore(false).Run(NewSliceStream(computeOps(2000, 0)))
	pair := newTestCore(false).Run(
		NewSliceStream(computeOps(1000, 0)),
		NewSliceStream(computeOps(1000, 0)))
	// The same 2000 ops split across siblings must not finish faster.
	if pair.Cycles < one.Cycles*0.95 {
		t.Fatalf("SMT pair (%.0f) beat single-thread issue (%.0f)", pair.Cycles, one.Cycles)
	}
}
