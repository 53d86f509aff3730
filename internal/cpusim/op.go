// Package cpusim models CPU cores executing abstract instruction streams
// against a memsim memory hierarchy. The model is deliberately not
// cycle-accurate RTL; it captures the three mechanisms the paper's results
// hinge on:
//
//  1. memory-level parallelism limited by the instruction window and by
//     MSHR-like fill buffers (so out-of-order cores overlap misses, and
//     wider windows overlap more — the Fig. 16 effect),
//  2. software prefetches that occupy fill buffers but not the window (so
//     they take misses off the retirement critical path — §4.2), and
//  3. 2-way SMT where a thread stalled on memory donates its issue slots
//     to the sibling (so MP-HT overlaps the memory-bound embedding stage
//     with the compute-bound Bottom-MLP — §4.3).
//
// Streams are pull-based iterators so multi-million-op kernels never have
// to be materialized in memory.
package cpusim

import "dlrmsim/internal/memsim"

// OpKind classifies one abstract instruction.
type OpKind uint8

// Instruction kinds.
const (
	// OpCompute models a block of execution-bound work (e.g. SIMD FMAs)
	// costing Op.Cost cycles at full issue rate.
	OpCompute OpKind = iota
	// OpLoad is a demand load of the line containing Op.Addr.
	OpLoad
	// OpStore is a store to the line containing Op.Addr (write-buffered:
	// it never stalls the thread).
	OpStore
	// OpPrefetch is a software prefetch of Op.Addr with hint Op.Hint.
	OpPrefetch
)

// Op is one instruction handed to the core model.
type Op struct {
	Kind OpKind
	Addr memsim.Addr
	// Cost is the execution time in cycles for OpCompute ops. It is the
	// *throughput* cost (FLOPs divided by the platform's FLOPs/cycle),
	// not a latency.
	Cost float64
	// Hint selects the target level for OpPrefetch
	// (KindPrefetchL1/L2/L3).
	Hint memsim.AccessKind
	// Lines is how many consecutive cache lines, starting at Addr, an
	// OpLoad or OpPrefetch covers — the shape of an embedding-row
	// gather. 0 and 1 both mean a single line. The core runs every load
	// and prefetch through one per-line path: each line pays issue,
	// window, and fill-buffer costs, and the core still yields to its
	// SMT sibling and the cross-core interleaver between lines, so a
	// burst times exactly like its lines emitted as one-line ops; it
	// only removes the per-line trip through the Stream interface. Note
	// streams emit fewer (wider) ops, so CountOps counts a burst once.
	Lines int32
}

// Stream supplies ops one at a time. Next fills *op and reports whether an
// op was produced; it returns false at end of stream.
type Stream interface {
	Next(op *Op) bool
}

// StreamFactory builds a fresh stream. The multi-core simulator re-runs
// streams while solving the DRAM-bandwidth fixed point, so work must be
// supplied as replayable factories rather than one-shot iterators.
type StreamFactory func() Stream

// SliceStream replays a fixed slice of ops. Primarily for tests.
type SliceStream struct {
	ops []Op
	pos int
}

// NewSliceStream returns a stream over ops.
func NewSliceStream(ops []Op) *SliceStream { return &SliceStream{ops: ops} }

// Next implements Stream.
func (s *SliceStream) Next(op *Op) bool {
	if s.pos >= len(s.ops) {
		return false
	}
	*op = s.ops[s.pos]
	s.pos++
	return true
}

// ConcatStream runs a sequence of streams back to back, modeling
// consecutive pipeline stages executing on one thread.
type ConcatStream struct {
	streams []Stream
	idx     int
}

// NewConcatStream concatenates the given streams.
func NewConcatStream(streams ...Stream) *ConcatStream {
	return &ConcatStream{streams: streams}
}

// Next implements Stream.
func (s *ConcatStream) Next(op *Op) bool {
	for s.idx < len(s.streams) {
		if s.streams[s.idx].Next(op) {
			return true
		}
		s.idx++
	}
	return false
}

// CountOps drains a stream and returns the number of ops by kind; a
// convenience for tests and workload introspection.
func CountOps(s Stream) map[OpKind]int64 {
	counts := make(map[OpKind]int64)
	var op Op
	for s.Next(&op) {
		counts[op.Kind]++
	}
	return counts
}

// CountLines drains a stream and returns per-kind counts with burst ops
// weighted by the lines they cover (Lines > 1 counts Lines times). This
// is the instruction count the core actually executes, matching what
// per-line emission of the same work would produce.
func CountLines(s Stream) map[OpKind]int64 {
	counts := make(map[OpKind]int64)
	var op Op
	for s.Next(&op) {
		n := int64(1)
		if op.Lines > 1 {
			n = int64(op.Lines)
		}
		counts[op.Kind] += n
	}
	return counts
}
