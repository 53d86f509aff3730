package embedding

import (
	"math"
	"testing"

	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/trace"
)

func TestDTypeSizes(t *testing.T) {
	if F32.ElemBytes() != 4 || F16.ElemBytes() != 2 || Int8.ElemBytes() != 1 {
		t.Fatal("element sizes wrong")
	}
	for _, d := range []DType{F32, F16, Int8} {
		if d.String() == "invalid" {
			t.Fatalf("dtype %d unnamed", d)
		}
	}
	if DType(9).String() != "invalid" {
		t.Fatal("bad dtype not flagged")
	}
}

func TestQuantizedRowGeometry(t *testing.T) {
	f32 := NewTypedTable(0, 100, 128, 1, F32)
	f16 := NewTypedTable(0, 100, 128, 1, F16)
	i8 := NewTypedTable(0, 100, 128, 1, Int8)
	if f32.RowBytes() != 512 || f32.RowLines() != 8 {
		t.Fatalf("fp32 row = %d B / %d lines", f32.RowBytes(), f32.RowLines())
	}
	if f16.RowBytes() != 256 || f16.RowLines() != 4 {
		t.Fatalf("fp16 row = %d B / %d lines", f16.RowBytes(), f16.RowLines())
	}
	// int8: 128 elements + 4-byte scale = 132 B = 3 lines.
	if i8.RowBytes() != 132 || i8.RowLines() != 3 {
		t.Fatalf("int8 row = %d B / %d lines", i8.RowBytes(), i8.RowLines())
	}
	if i8.DType() != Int8 {
		t.Fatal("DType accessor")
	}
	for _, tb := range []*Table{f32, f16, i8} {
		if got := tb.DType().RowBytes(128); got != tb.RowBytes() {
			t.Errorf("%v: DType.RowBytes(128) = %d, table row = %d", tb.DType(), got, tb.RowBytes())
		}
	}
}

func TestQuantizedValuesApproximateF32(t *testing.T) {
	f32 := NewTypedTable(0, 100, 64, 7, F32)
	for _, d := range []DType{F16, Int8} {
		q := NewTypedTable(0, 100, 64, 7, d)
		var maxErr float64
		for r := int32(0); r < 50; r++ {
			for c := 0; c < 64; c++ {
				e := math.Abs(float64(q.At(r, c) - f32.At(r, c)))
				if e > maxErr {
					maxErr = e
				}
			}
		}
		// int8 with scale 0.05/127: max quantization error ~0.0004.
		if maxErr > 6e-4 {
			t.Errorf("%v: max quantization error %g too large", d, maxErr)
		}
		if maxErr == 0 {
			t.Errorf("%v: values identical to fp32; quantization not applied", d)
		}
	}
}

func TestQuantizedBagStillSums(t *testing.T) {
	tbl := NewTypedTable(0, 100, 32, 3, Int8)
	in := trace.TableBatch{Offsets: []int32{0, 2}, Indices: []int32{4, 9}}
	out, err := Bag(tbl, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 32; c++ {
		want := tbl.At(4, c) + tbl.At(9, c)
		if out[0][c] != want {
			t.Fatalf("col %d: %g != %g", c, out[0][c], want)
		}
	}
}

func TestQuantizedStreamTouchesFewerLines(t *testing.T) {
	in := trace.TableBatch{Offsets: []int32{0, 4}, Indices: []int32{1, 2, 3, 4}}
	countRowLoads := func(d DType) int64 {
		tbl := NewTypedTable(0, 100, 128, 3, d)
		s := NewTableStream(tbl, in, 0, StreamConfig{FlopsPerCycle: 32, BufBase: 1 << 33})
		var op cpusim.Op
		var n int64
		start := tbl.RowAddr(0)
		for s.Next(&op) {
			if op.Kind == cpusim.OpLoad && op.Addr >= start {
				if op.Lines > 1 {
					n += int64(op.Lines) // row gathers are burst ops
				} else {
					n++
				}
			}
		}
		return n
	}
	f32Loads := countRowLoads(F32)
	i8Loads := countRowLoads(Int8)
	if f32Loads != 4*8 {
		t.Fatalf("fp32 row loads = %d", f32Loads)
	}
	if i8Loads != 4*3 {
		t.Fatalf("int8 row loads = %d, want 12 (3 lines/row)", i8Loads)
	}
}

func TestQuantizedPrefetchBlocksClamped(t *testing.T) {
	// pf_blocks=8 on a 3-line int8 row must clamp to 3.
	tbl := NewTypedTable(0, 1000, 128, 3, Int8)
	in := trace.TableBatch{Offsets: []int32{0, 4}, Indices: []int32{10, 20, 30, 40}}
	s := NewTableStream(tbl, in, 0, StreamConfig{
		FlopsPerCycle: 32, BufBase: 1 << 33,
		Prefetch: PrefetchConfig{Dist: 1, Blocks: 8},
	})
	counts := cpusim.CountLines(s)
	// Lookups 0-2 have in-range targets: 3 × 3 lines.
	if counts[cpusim.OpPrefetch] != 9 {
		t.Fatalf("prefetches = %d, want 9", counts[cpusim.OpPrefetch])
	}
}
