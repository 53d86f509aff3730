// Package embedding implements the DLRM embedding stage: embedding tables,
// the embedding_bag gather-reduce kernel (PyTorch semantics: per sample,
// sum the rows selected by an indices/offsets pair), and the kernel's
// instruction stream for the timing simulator — including the paper's
// Algorithm 3 software-prefetch insertion with its pf_dist and pf_blocks
// knobs.
//
// Tables are procedural: row values derive from a hash of (table, row,
// column), so an 81 GB model costs no memory while remaining bit-for-bit
// reproducible. The timing path uses only addresses; the numeric path
// generates values on demand.
package embedding

import (
	"fmt"
	"math"

	"dlrmsim/internal/memsim"
	"dlrmsim/internal/stats"
)

// tablesBase places embedding tables high in the simulated address space,
// away from MLP weights and activation buffers.
const tablesBase memsim.Addr = 1 << 40

// DType is the storage type of embedding elements. Production systems
// quantize embeddings (fp16, int8) to cut the memory footprint and
// bandwidth; the row size in turn changes how many cache lines a lookup
// touches and therefore the right pf_blocks setting.
type DType int

// Supported element types.
const (
	// F32 is the paper's configuration: 4 bytes per element.
	F32 DType = iota
	// F16 halves the row footprint.
	F16
	// Int8 quarters it (plus a per-row fp32 scale, 4 bytes).
	Int8
)

// ElemBytes returns the storage bytes per element.
func (d DType) ElemBytes() int {
	switch d {
	case F16:
		return 2
	case Int8:
		return 1
	default:
		return 4
	}
}

// RowBytes returns the size of one stored row of dim elements, including
// any per-row quantization metadata.
func (d DType) RowBytes(dim int) int {
	b := dim * d.ElemBytes()
	if d == Int8 {
		b += 4 // the fp32 dequant scale
	}
	return b
}

// String names the type.
func (d DType) String() string {
	switch d {
	case F32:
		return "fp32"
	case F16:
		return "fp16"
	case Int8:
		return "int8"
	default:
		return "invalid"
	}
}

// Table is one procedural embedding table.
type Table struct {
	id    int
	rows  int
	dim   int
	seed  uint64
	dtype DType
	base  memsim.Addr
}

// NewTable defines an fp32 table (the paper's configuration). Tables with
// the same (id, rows, dim, seed) are identical. It panics on non-positive
// geometry.
func NewTable(id, rows, dim int, seed uint64) *Table {
	return NewTypedTable(id, rows, dim, seed, F32)
}

// NewTypedTable defines a table with an explicit element type.
func NewTypedTable(id, rows, dim int, seed uint64, dtype DType) *Table {
	if id < 0 || rows < 1 || dim < 1 {
		panic(fmt.Sprintf("embedding: bad table geometry id=%d rows=%d dim=%d", id, rows, dim))
	}
	t := &Table{id: id, rows: rows, dim: dim, seed: seed, dtype: dtype}
	t.base = tablesBase + memsim.Addr(uint64(id)*uint64(rows)*uint64(t.RowBytes()))
	return t
}

// DType returns the element storage type.
func (t *Table) DType() DType { return t.dtype }

// ID returns the table's index within the model.
func (t *Table) ID() int { return t.id }

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// Dim returns the embedding dimension.
func (t *Table) Dim() int { return t.dim }

// RowBytes returns the size of one stored row in bytes.
func (t *Table) RowBytes() int { return t.dtype.RowBytes(t.dim) }

// RowLines returns the number of cache lines one row spans.
func (t *Table) RowLines() int { return (t.RowBytes() + memsim.LineSize - 1) / memsim.LineSize }

// RowAddr returns the simulated address of row r.
func (t *Table) RowAddr(r int32) memsim.Addr {
	return t.base + memsim.Addr(uint64(r)*uint64(t.RowBytes()))
}

// At returns the procedural value at (row, col), a deterministic value in
// [-0.05, 0.05) — the usual scale of trained embedding weights. Quantized
// tables return the dequantized value, so reduced dtypes show their
// precision loss numerically just like a real deployment.
func (t *Table) At(row int32, col int) float32 {
	h := stats.Mix64(t.seed ^ uint64(t.id)<<48 ^ uint64(uint32(row))<<16 ^ uint64(col))
	v := float32(stats.MixFloat01(h)-0.5) * 0.1
	switch t.dtype {
	case Int8:
		// Symmetric int8 with a per-row scale of 0.05 (the value range).
		const scale = 0.05 / 127
		q := int8(v / scale)
		return float32(q) * scale
	case F16:
		return roundF16(v)
	default:
		return v
	}
}

// roundF16 rounds a float32 to the nearest IEEE half-precision value
// (round-to-nearest-even), returned as float32.
func roundF16(v float32) float32 {
	bits := math.Float32bits(v)
	sign := bits & 0x80000000
	exp := int32(bits>>23&0xff) - 127
	man := bits & 0x7fffff
	switch {
	case exp < -24: // underflow to zero
		return math.Float32frombits(sign)
	case exp > 15: // overflow to inf (not reachable for our value range)
		return math.Float32frombits(sign | 0x7f800000)
	case exp < -14: // subnormal half: flush to zero (FTZ semantics)
		return math.Float32frombits(sign)
	default:
		// Round mantissa to 10 bits.
		r := man + 0x1000
		if r&0x800000 != 0 { // mantissa overflow bumps the exponent
			r = 0
			exp++
		}
		man = r &^ 0x1fff
		return math.Float32frombits(sign | uint32(exp+127)<<23 | man)
	}
}

// Row materializes row r into dst (allocating if nil) and returns it.
func (t *Table) Row(r int32, dst []float32) []float32 {
	if cap(dst) < t.dim {
		dst = make([]float32, t.dim)
	}
	dst = dst[:t.dim]
	for c := range dst {
		dst[c] = t.At(r, c)
	}
	return dst
}

// FootprintBytes returns the table's modeled memory footprint.
func (t *Table) FootprintBytes() int64 {
	return int64(t.rows) * int64(t.RowBytes())
}
