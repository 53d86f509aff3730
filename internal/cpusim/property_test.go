package cpusim

import (
	"testing"
	"testing/quick"

	"dlrmsim/internal/memsim"
)

// TestMoreWorkNeverFaster: appending ops to a stream can never reduce the
// completion time.
func TestMoreWorkNeverFaster(t *testing.T) {
	f := func(raw []uint8, extra uint8) bool {
		ops := make([]Op, 0, len(raw))
		for _, r := range raw {
			switch r % 3 {
			case 0:
				ops = append(ops, Op{Kind: OpCompute, Cost: float64(r%7) + 0.5})
			case 1:
				ops = append(ops, Op{Kind: OpLoad, Addr: memsim.Addr(r) * 8192})
			default:
				ops = append(ops, Op{Kind: OpStore, Addr: memsim.Addr(r) * 8192})
			}
		}
		shorter := newTestCore(false).Run(NewSliceStream(ops)).Cycles
		longer := newTestCore(false).Run(NewSliceStream(append(append([]Op{}, ops...),
			computeOps(int(extra%8)+1, 1)...))).Cycles
		return longer >= shorter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWiderIssueNotMeaningfullySlower: raising issue width cannot
// meaningfully increase the completion time of a fixed single-threaded
// stream. A small tolerance is allowed: changing issue timing shifts when
// fills land and which pool entry a stall waits on, and such scheduling
// anomalies (familiar from real out-of-order machines) can cost a few
// cycles.
func TestWiderIssueNotMeaningfullySlower(t *testing.T) {
	mp := testMemParams()
	run := func(width float64, ops []Op) float64 {
		p := testCoreParams()
		p.IssueWidth = width
		c := NewCore(p, memsim.NewHierarchy(mp, memsim.NewShared(mp)))
		return c.Run(NewSliceStream(ops)).Cycles
	}
	f := func(raw []uint8) bool {
		ops := make([]Op, 0, len(raw))
		for _, r := range raw {
			if r%2 == 0 {
				ops = append(ops, Op{Kind: OpCompute, Cost: 0.5})
			} else {
				ops = append(ops, Op{Kind: OpLoad, Addr: memsim.Addr(r) * 4096})
			}
		}
		wide, narrow := run(8, ops), run(2, ops)
		return wide <= narrow*1.05+8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMoreMLPNeverSlower: raising DemandMLP (with FillBuffers along)
// cannot slow a load-only stream down.
func TestMoreMLPNeverSlower(t *testing.T) {
	mp := testMemParams()
	run := func(mlp int, n int) float64 {
		p := testCoreParams()
		p.DemandMLP = mlp
		p.FillBuffers = mlp + 2
		c := NewCore(p, memsim.NewHierarchy(mp, memsim.NewShared(mp)))
		return c.Run(NewSliceStream(coldLoads(n, 0))).Cycles
	}
	for _, n := range []int{1, 10, 100} {
		prev := run(1, n)
		for _, mlp := range []int{2, 4, 8, 16} {
			cur := run(mlp, n)
			if cur > prev+1e-9 {
				t.Fatalf("n=%d: MLP=%d slower (%g) than smaller MLP (%g)", n, mlp, cur, prev)
			}
			prev = cur
		}
	}
}

// TestThreadResultAccounting: issued op counts are exact and stall +
// compute cycles never exceed total cycles.
func TestThreadResultAccounting(t *testing.T) {
	ops := append(computeOps(10, 3), coldLoads(20, 0)...)
	res := newTestCore(false).Run(NewSliceStream(ops))
	tr := res.Threads[0]
	if tr.Issued != 30 {
		t.Fatalf("issued = %d", tr.Issued)
	}
	if tr.StallCycles+tr.ComputeCycles > tr.Cycles+1e-9 {
		t.Fatalf("stall %g + compute %g > total %g", tr.StallCycles, tr.ComputeCycles, tr.Cycles)
	}
	if tr.Cycles != res.Cycles {
		t.Fatal("single-thread core cycles mismatch")
	}
}

// TestPhasedWorkSequencing: a two-phase core work runs phases back to
// back, and phase durations sum to the total.
func TestPhasedWorkSequencing(t *testing.T) {
	sys := NewSystem(testSystemParams(1))
	work := []CoreWork{{Phases: []Phase{
		{Label: "a", Streams: []StreamFactory{func() Stream { return NewSliceStream(computeOps(10, 5)) }}},
		{Label: "b", Streams: []StreamFactory{func() Stream { return NewSliceStream(coldLoads(10, 0)) }}},
	}}}
	res := sys.Run(work)
	pc := res.PerCore[0]
	if len(pc.Phases) != 2 {
		t.Fatalf("phases = %d", len(pc.Phases))
	}
	if pc.Phases[0].Label != "a" || pc.Phases[1].Label != "b" {
		t.Fatalf("labels = %v/%v", pc.Phases[0].Label, pc.Phases[1].Label)
	}
	if pc.Phases[1].Start != pc.Phases[0].End {
		t.Fatalf("phase b starts at %g, phase a ends at %g", pc.Phases[1].Start, pc.Phases[0].End)
	}
	sum := (pc.Phases[0].End - pc.Phases[0].Start) + (pc.Phases[1].End - pc.Phases[1].Start)
	if diff := sum - pc.Cycles; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("phase durations sum %g != total %g", sum, pc.Cycles)
	}
	if got := pc.PhaseCycles("a"); got != pc.Phases[0].End-pc.Phases[0].Start {
		t.Fatalf("PhaseCycles(a) = %g", got)
	}
	if got := pc.PhaseCycles("missing"); got != 0 {
		t.Fatalf("PhaseCycles(missing) = %g", got)
	}
}

// TestSMTPhaseWithTwoStreams: a phase with two streams runs them as
// siblings and reports both thread results.
func TestSMTPhaseWithTwoStreams(t *testing.T) {
	sys := NewSystem(testSystemParams(1))
	work := []CoreWork{{Phases: []Phase{{
		Label: "pair",
		Streams: []StreamFactory{
			func() Stream { return NewSliceStream(computeOps(10, 5)) },
			func() Stream { return NewSliceStream(coldLoads(10, 1<<30)) },
		},
	}}}}
	res := sys.Run(work)
	if got := len(res.PerCore[0].Phases[0].Threads); got != 2 {
		t.Fatalf("thread results = %d", got)
	}
}

// TestMeanPhaseCyclesAveragesAcrossCores verifies the aggregate helper.
func TestMeanPhaseCyclesAveragesAcrossCores(t *testing.T) {
	sys := NewSystem(testSystemParams(2))
	mk := func(n int) CoreWork {
		return CoreWork{Phases: []Phase{{
			Label:   "w",
			Streams: []StreamFactory{func() Stream { return NewSliceStream(computeOps(n, 1)) }},
		}}}
	}
	res := sys.Run([]CoreWork{mk(10), mk(30)})
	d0 := res.PerCore[0].PhaseCycles("w")
	d1 := res.PerCore[1].PhaseCycles("w")
	want := (d0 + d1) / 2
	if got := res.MeanPhaseCycles("w"); got != want {
		t.Fatalf("mean phase = %g, want %g", got, want)
	}
	if got := res.MeanCoreCycles(); got != (res.PerCore[0].Cycles+res.PerCore[1].Cycles)/2 {
		t.Fatalf("mean core cycles = %g", got)
	}
}
