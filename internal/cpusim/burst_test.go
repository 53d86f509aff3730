package cpusim

import (
	"reflect"
	"testing"

	"dlrmsim/internal/memsim"
)

// expandBursts rewrites every multi-line op as the equivalent per-line
// sequence — the legacy emission shape burst ops must be bit-identical to.
func expandBursts(ops []Op) []Op {
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		if op.Lines > 1 && (op.Kind == OpLoad || op.Kind == OpPrefetch) {
			for i := int32(0); i < op.Lines; i++ {
				line := op
				line.Addr = op.Addr + memsim.Addr(i)*memsim.LineSize
				line.Lines = 0
				out = append(out, line)
			}
			continue
		}
		out = append(out, op)
	}
	return out
}

// gatherOps builds an embedding-shaped op sequence: prefetch bursts ahead
// of multi-line row gathers, interleaved with accumulator load/compute/
// store triples — the workload Op.Lines exists for. Rows land across a
// footprint well beyond L2 so the stream mixes hits and misses at every
// level.
func gatherOps(seed uint64, n int, rowLines int32) []Op {
	state := seed
	rnd := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	rowAddr := func() memsim.Addr {
		return memsim.Addr(rnd()%(1<<22)) * memsim.LineSize * memsim.Addr(rowLines)
	}
	var ops []Op
	accBase := memsim.Addr(1 << 33)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			hint := memsim.KindPrefetchL1
			if i%6 == 0 {
				hint = memsim.KindPrefetchL2
			}
			ops = append(ops, Op{Kind: OpPrefetch, Addr: rowAddr(), Hint: hint, Lines: rowLines})
		}
		ops = append(ops, Op{Kind: OpLoad, Addr: rowAddr(), Lines: rowLines})
		acc := accBase + memsim.Addr(i%4)*512
		ops = append(ops,
			Op{Kind: OpLoad, Addr: acc},
			Op{Kind: OpCompute, Cost: 2.5},
			Op{Kind: OpStore, Addr: acc},
		)
	}
	return ops
}

// hierStats snapshots the counters a timing divergence would perturb.
func hierStats(h *memsim.Hierarchy) [4]memsim.CacheStats {
	return [4]memsim.CacheStats{h.L1.Stats, h.L2.Stats, {}, {}}
}

// TestBurstMatchesPerLineSingleThread pins the Op.Lines contract on one
// context: CoreResult and every cache counter must match per-line
// emission exactly.
func TestBurstMatchesPerLineSingleThread(t *testing.T) {
	for _, hwpf := range []bool{false, true} {
		ops := gatherOps(0x9E3779B97F4A7C15, 400, 8)
		cb := newCoreOver(testCoreParams(), testMemParams(), hwpf)
		cl := newCoreOver(testCoreParams(), testMemParams(), hwpf)
		rb := cb.Run(NewSliceStream(ops))
		rl := cl.Run(NewSliceStream(expandBursts(ops)))
		// Bursts count issue per covered line, so even Issued must match.
		if !reflect.DeepEqual(rb, rl) {
			t.Fatalf("hwpf=%v: results diverge:\nburst    %+v\nper-line %+v", hwpf, rb, rl)
		}
		if cb.Hierarchy().Stats != cl.Hierarchy().Stats {
			t.Fatalf("hwpf=%v: hierarchy stats diverge:\nburst    %+v\nper-line %+v",
				hwpf, cb.Hierarchy().Stats, cl.Hierarchy().Stats)
		}
		if hierStats(cb.Hierarchy()) != hierStats(cl.Hierarchy()) {
			t.Fatalf("hwpf=%v: cache stats diverge", hwpf)
		}
	}
}

// TestBurstMatchesPerLineSMT runs a gather thread against a compute-heavy
// sibling: the burst must yield to the sibling between lines exactly
// where per-line decoding would have.
func TestBurstMatchesPerLineSMT(t *testing.T) {
	gather := gatherOps(0xA5A5A5A55A5A5A5A, 300, 8)
	sibling := gatherOps(0xDEADBEEFCAFEF00D, 200, 4)
	cb := newCoreOver(testCoreParams(), testMemParams(), true)
	cl := newCoreOver(testCoreParams(), testMemParams(), true)
	rb := cb.Run(NewSliceStream(gather), NewSliceStream(sibling))
	rl := cl.Run(NewSliceStream(expandBursts(gather)), NewSliceStream(expandBursts(sibling)))
	if !reflect.DeepEqual(rb, rl) {
		t.Fatalf("SMT results diverge:\nburst    %+v\nper-line %+v", rb, rl)
	}
	if cb.Hierarchy().Stats != cl.Hierarchy().Stats {
		t.Fatalf("hierarchy stats diverge:\nburst    %+v\nper-line %+v",
			cb.Hierarchy().Stats, cl.Hierarchy().Stats)
	}
}

// TestBurstMatchesPerLineSystem drives multi-core earliest-first
// interleaving: bursts must suspend at runStates' cross-core horizon so
// the shared-LLC access order — and therefore every counter and cycle
// count — matches per-line emission.
func TestBurstMatchesPerLineSystem(t *testing.T) {
	seeds := []uint64{0x123456789ABCDEF, 0xFEDCBA987654321, 0x0F1E2D3C4B5A697,
		0x1111111122222222}
	work := func(expand bool) []CoreWork {
		var ws []CoreWork
		for i, seed := range seeds {
			seed := seed
			nLines := int32(4 + 2*(i%3)) // 4, 6, 8 — staggered burst widths
			mk := func() Stream {
				ops := gatherOps(seed, 250, nLines)
				if expand {
					ops = expandBursts(ops)
				}
				return NewSliceStream(ops)
			}
			if i%2 == 1 {
				// Odd cores run an SMT pair to mix sibling yields with
				// cross-core suspension.
				sib := seed ^ 0xABCDABCDABCDABCD
				mkSib := func() Stream {
					ops := gatherOps(sib, 150, 2)
					if expand {
						ops = expandBursts(ops)
					}
					return NewSliceStream(ops)
				}
				ws = append(ws, CoreWork{Phases: []Phase{
					{Label: "pair", Streams: []StreamFactory{mk, mkSib}},
					{Label: "tail", Streams: []StreamFactory{mk}},
				}})
				continue
			}
			ws = append(ws, singleWork(mk))
		}
		return ws
	}
	params := SystemParams{Core: testCoreParams(), Mem: testMemParams(), Cores: len(seeds)}
	rb := withHWPF(NewSystem(params)).Run(work(false))
	rl := withHWPF(NewSystem(params)).Run(work(true))
	if !reflect.DeepEqual(rb, rl) {
		t.Fatalf("system results diverge:\nburst    %+v\nper-line %+v", rb, rl)
	}
}

// TestOneLineOpIgnoresLinesZeroOrOne: Lines 0 and Lines 1 both mean one
// line, so every one-line load and prefetch must time identically under
// either spelling, on a lone context and beside an SMT sibling.
func TestOneLineOpIgnoresLinesZeroOrOne(t *testing.T) {
	spell := func(ops []Op, lines int32) []Op {
		out := append([]Op(nil), ops...)
		for i := range out {
			if out[i].Kind == OpLoad || out[i].Kind == OpPrefetch {
				out[i].Lines = lines
			}
		}
		return out
	}
	ops := gatherOps(0x0DDBA11C0FFEE123, 400, 1)
	sib := gatherOps(0x5EED5EED5EED5EED, 300, 1)
	for _, smt := range []bool{false, true} {
		run := func(lines int32) (CoreResult, memsim.HierStats) {
			c := newCoreOver(testCoreParams(), testMemParams(), true)
			streams := []Stream{NewSliceStream(spell(ops, lines))}
			if smt {
				streams = append(streams, NewSliceStream(spell(sib, lines)))
			}
			return c.Run(streams...), c.Hierarchy().Stats
		}
		r0, s0 := run(0)
		r1, s1 := run(1)
		if !reflect.DeepEqual(r0, r1) || s0 != s1 {
			t.Fatalf("smt=%v: Lines 0 and Lines 1 diverge:\nLines 0 %+v %+v\nLines 1 %+v %+v", smt, r0, s0, r1, s1)
		}
	}
}
