package cpusim

import "testing"

// TestCoreStepLoopSteadyStateZeroAlloc pins the per-op step path to zero
// heap allocations once the core is warm: Begin reuses the thread store
// and each thread's load FIFO, the fill pools reuse their backing arrays,
// and Step decodes into the core-owned Op scratch so the Stream interface
// call cannot force an escape (DESIGN.md §9). One run replays the full
// stream through Begin/nextThread/Step; Collect is excluded because its
// result slice is a deliberate per-run allocation.
func TestCoreStepLoopSteadyStateZeroAlloc(t *testing.T) {
	ops := benchOps(1 << 10)
	c := newCoreOver(benchCoreParams(), benchMemParams(), true)
	s := NewSliceStream(ops)
	c.Run(s) // warm-up: grows pools, load FIFOs, and prefetcher state

	avg := testing.AllocsPerRun(5, func() {
		s.pos = 0
		c.Begin(s)
		for {
			th := c.nextThread()
			if th == nil {
				break
			}
			c.Step(th)
		}
	})
	if avg != 0 {
		t.Fatalf("Core step loop allocates %.2f objects per run in steady state; want 0", avg)
	}
}

// TestCoreSMTStepLoopSteadyStateZeroAlloc is the two-context variant: SMT
// arbitration (contention factors, tie-breaking) must not allocate either.
func TestCoreSMTStepLoopSteadyStateZeroAlloc(t *testing.T) {
	ops := benchOps(1 << 10)
	half := len(ops) / 2
	c := newCoreOver(benchCoreParams(), benchMemParams(), true)
	s0, s1 := NewSliceStream(ops[:half]), NewSliceStream(ops[half:])
	c.Run(s0, s1)

	avg := testing.AllocsPerRun(5, func() {
		s0.pos, s1.pos = 0, 0
		c.Begin(s0, s1)
		for {
			th := c.nextThread()
			if th == nil {
				break
			}
			c.Step(th)
		}
	})
	if avg != 0 {
		t.Fatalf("SMT step loop allocates %.2f objects per run in steady state; want 0", avg)
	}
}
