package cpusim

import (
	"testing"

	"dlrmsim/internal/memsim"
)

func testMemParams() memsim.MemParams {
	return memsim.MemParams{
		L1:   memsim.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 5},
		L2:   memsim.CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, LatencyCyc: 14},
		L3:   memsim.CacheConfig{Name: "L3", SizeBytes: 8 << 20, Ways: 11, LatencyCyc: 50},
		DRAM: memsim.DRAMConfig{BaseLatencyCyc: 200, PeakBandwidthBytesPerCyc: 58, QueueSensitivity: 1},
	}
}

func testCoreParams() CoreParams {
	return CoreParams{
		IssueWidth:       4,
		WindowSize:       224,
		DemandMLP:        10,
		FillBuffers:      12,
		PipelinedLatency: 14,
	}
}

func newTestCore(hwpf bool) *Core {
	return newCoreOver(testCoreParams(), testMemParams(), hwpf)
}

// newCoreOver builds a core over a fresh one-core hierarchy of mp, with
// the hardware prefetchers on or off.
func newCoreOver(p CoreParams, mp memsim.MemParams, hwpf bool) *Core {
	h := memsim.NewHierarchy(mp, memsim.NewShared(mp))
	h.HWPrefetchEnabled = hwpf
	return NewCore(p, h)
}

// withHWPF turns the hardware prefetchers of every core of s on.
func withHWPF(s *System) *System {
	for _, c := range s.cores {
		c.hier.HWPrefetchEnabled = true
	}
	return s
}

func computeOps(n int, cost float64) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpCompute, Cost: cost}
	}
	return ops
}

// coldLoads builds n loads to distinct lines far apart (no spatial reuse).
func coldLoads(n int, base memsim.Addr) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpLoad, Addr: base + memsim.Addr(i)*8192}
	}
	return ops
}

func TestComputeOnlyTiming(t *testing.T) {
	c := newTestCore(false)
	res := c.Run(NewSliceStream(computeOps(100, 2)))
	// 100 ops × (0.25 issue + 2 compute) = 225 cycles.
	if res.Cycles < 220 || res.Cycles > 230 {
		t.Fatalf("compute-only cycles = %g", res.Cycles)
	}
	if res.Threads[0].Issued != 100 {
		t.Fatalf("issued = %d", res.Threads[0].Issued)
	}
}

func TestL1HitLoadsAreFast(t *testing.T) {
	c := newTestCore(false)
	// Warm one line, then hammer it.
	ops := []Op{{Kind: OpLoad, Addr: 0x1000}}
	for i := 0; i < 99; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: 0x1000})
	}
	res := c.Run(NewSliceStream(ops))
	// One cold miss (~250) plus 99 pipelined hits (~0.25 each).
	if res.Cycles > 400 {
		t.Fatalf("hit-dominated stream took %g cycles", res.Cycles)
	}
}

func TestMissOverlapWithinMLP(t *testing.T) {
	c := newTestCore(false)
	res := c.Run(NewSliceStream(coldLoads(100, 0)))
	serial := 100.0 * 250
	// With DemandMLP=10 the misses overlap ~10 deep.
	if res.Cycles > serial/4 {
		t.Fatalf("no overlap: %g cycles vs serial %g", res.Cycles, serial)
	}
	if res.Cycles < serial/15 {
		t.Fatalf("too much overlap: %g cycles", res.Cycles)
	}
}

func TestDemandMLPCapMatters(t *testing.T) {
	mp := testMemParams()
	wide := testCoreParams()
	narrow := testCoreParams()
	narrow.DemandMLP = 1
	cw := NewCore(wide, memsim.NewHierarchy(mp, memsim.NewShared(mp)))
	cn := NewCore(narrow, memsim.NewHierarchy(mp, memsim.NewShared(mp)))
	rw := cw.Run(NewSliceStream(coldLoads(50, 0)))
	rn := cn.Run(NewSliceStream(coldLoads(50, 0)))
	if rn.Cycles < 3*rw.Cycles {
		t.Fatalf("MLP=1 (%g) should be much slower than MLP=10 (%g)", rn.Cycles, rw.Cycles)
	}
}

func TestWindowLimitsMLP(t *testing.T) {
	mp := testMemParams()
	small := testCoreParams()
	small.WindowSize = 2
	cs := NewCore(small, memsim.NewHierarchy(mp, memsim.NewShared(mp)))
	cl := newTestCore(false)
	rs := cs.Run(NewSliceStream(coldLoads(50, 0)))
	rl := cl.Run(NewSliceStream(coldLoads(50, 0)))
	if rs.Cycles < 2*rl.Cycles {
		t.Fatalf("window=2 (%g) should be much slower than window=224 (%g)", rs.Cycles, rl.Cycles)
	}
}

func TestTimelyPrefetchHidesMissLatency(t *testing.T) {
	// Prefetch every line ~1000 cycles of compute before its demand load.
	var ops []Op
	n := 20
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Kind: OpPrefetch, Addr: memsim.Addr(i) * 8192, Hint: memsim.KindPrefetchL1})
	}
	ops = append(ops, computeOps(10, 100)...) // 1000 cycles of cover
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: memsim.Addr(i) * 8192})
	}
	withPF := newTestCore(false).Run(NewSliceStream(ops))

	// Same work without the prefetches.
	var noPF []Op
	noPF = append(noPF, computeOps(10, 100)...)
	noPF = append(noPF, coldLoads(n, 0)...)
	without := newTestCore(false).Run(NewSliceStream(noPF))

	// The prefetch version still pays the compute but the loads all hit.
	if withPF.Cycles >= without.Cycles {
		t.Fatalf("prefetching didn't help: %g vs %g", withPF.Cycles, without.Cycles)
	}
}

func TestPrefetchPoolBackpressure(t *testing.T) {
	mp := testMemParams()
	p := testCoreParams()
	p.DemandMLP = 1
	p.FillBuffers = 1
	c := NewCore(p, memsim.NewHierarchy(mp, memsim.NewShared(mp)))
	var ops []Op
	for i := 0; i < 50; i++ {
		ops = append(ops, Op{Kind: OpPrefetch, Addr: memsim.Addr(i) * 8192, Hint: memsim.KindPrefetchL1})
	}
	res := c.Run(NewSliceStream(ops))
	// With a single prefetch slot, 50 prefetch misses serialize at ~250
	// cycles each (minus one unstalled tail).
	if res.Cycles < 40*250 {
		t.Fatalf("prefetch backpressure missing: %g cycles", res.Cycles)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	c := newTestCore(false)
	var ops []Op
	for i := 0; i < 100; i++ {
		ops = append(ops, Op{Kind: OpStore, Addr: memsim.Addr(i) * 8192})
	}
	res := c.Run(NewSliceStream(ops))
	if res.Cycles > 100 {
		t.Fatalf("stores stalled: %g cycles", res.Cycles)
	}
}

func TestSMTOverlapsMemoryAndCompute(t *testing.T) {
	// A memory-bound stream and a compute-bound stream, run separately
	// and then as SMT siblings. SMT time must be well below the sum and
	// close to the max — the MP-HT effect.
	mem := func() []Op { return coldLoads(200, 0) }
	cmp := func() []Op { return computeOps(100, 20) }

	cm := newTestCore(false).Run(NewSliceStream(mem()))
	cc := newTestCore(false).Run(NewSliceStream(cmp()))
	both := newTestCore(false).Run(NewSliceStream(mem()), NewSliceStream(cmp()))

	sum := cm.Cycles + cc.Cycles
	maxT := cm.Cycles
	if cc.Cycles > maxT {
		maxT = cc.Cycles
	}
	if both.Cycles >= 0.9*sum {
		t.Fatalf("SMT gained nothing: both=%g sum=%g", both.Cycles, sum)
	}
	if both.Cycles < maxT {
		t.Fatalf("SMT faster than the slower member alone: %g < %g", both.Cycles, maxT)
	}
}

func TestSMTComputeComputeContends(t *testing.T) {
	// Two compute-bound threads on one core share issue slots: the pair
	// finishes in ~2x one thread's time (no free lunch).
	one := newTestCore(false).Run(NewSliceStream(computeOps(100, 5)))
	pair := newTestCore(false).Run(
		NewSliceStream(computeOps(100, 5)), NewSliceStream(computeOps(100, 5)))
	if pair.Cycles < 1.7*one.Cycles {
		t.Fatalf("compute-compute SMT too cheap: pair=%g one=%g", pair.Cycles, one.Cycles)
	}
}

func TestSMTMemoryMemoryContendsOnMSHRs(t *testing.T) {
	// Two memory-bound threads share the demand pool: per-thread latency
	// roughly doubles versus running alone — the paper's DP-HT problem.
	one := newTestCore(false).Run(NewSliceStream(coldLoads(200, 0)))
	pair := newTestCore(false).Run(
		NewSliceStream(coldLoads(200, 0)),
		NewSliceStream(coldLoads(200, 1<<30)))
	if pair.Cycles < 1.5*one.Cycles {
		t.Fatalf("memory-memory SMT too cheap: pair=%g one=%g", pair.Cycles, one.Cycles)
	}
}

func TestRunPanicsOnZeroStreams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	newTestCore(false).Run()
}

func TestCoreParamsValidate(t *testing.T) {
	good := testCoreParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.IssueWidth = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero issue width")
	}
	bad = good
	bad.WindowSize = 1
	if bad.Validate() == nil {
		t.Fatal("accepted window of 1")
	}
	bad = good
	bad.DemandMLP = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero MLP")
	}
}

func TestCountOps(t *testing.T) {
	s := NewSliceStream([]Op{{Kind: OpLoad}, {Kind: OpLoad}, {Kind: OpCompute}})
	counts := CountOps(s)
	if counts[OpLoad] != 2 || counts[OpCompute] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestConcatStream(t *testing.T) {
	s := NewConcatStream(
		NewSliceStream([]Op{{Kind: OpLoad, Addr: 1}}),
		NewSliceStream(nil),
		NewSliceStream([]Op{{Kind: OpCompute, Cost: 3}}),
	)
	var op Op
	if !s.Next(&op) || op.Kind != OpLoad {
		t.Fatal("first op wrong")
	}
	if !s.Next(&op) || op.Kind != OpCompute {
		t.Fatal("second op wrong")
	}
	if s.Next(&op) {
		t.Fatal("stream should be exhausted")
	}
}
