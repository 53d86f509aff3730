package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pbWriter encodes the protobuf subset profile.proto uses.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(num int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pbWriter) bytes(num int, data []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|2)
	w.b = binary.AppendUvarint(w.b, uint64(len(data)))
	w.b = append(w.b, data...)
}

func (w *pbWriter) packed(num int, vs []uint64) {
	var in []byte
	for _, v := range vs {
		in = binary.AppendUvarint(in, v)
	}
	w.bytes(num, in)
}

// synthProfile builds a gzip-compressed CPU profile whose samples have the
// given stacks (leaf first; a frame holding several names is one location
// with inlined functions, innermost first) and CPU nanoseconds. Odd
// samples use unpacked repeated fields, as some encoders write them.
func synthProfile(t *testing.T, stacks [][][]string, ns []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pbWriter
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbWriter
		m.varint(1, strIdx(vt[0]))
		m.varint(2, strIdx(vt[1]))
		p.bytes(1, m.b)
	}
	funcs := map[string]uint64{}
	var locID uint64
	for si, st := range stacks {
		var locs []uint64
		for _, frame := range st {
			locID++
			var loc pbWriter
			loc.varint(1, locID)
			for _, fn := range frame {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pbWriter
					f.varint(1, id)
					f.varint(2, strIdx(fn))
					p.bytes(5, f.b)
				}
				var line pbWriter
				line.varint(1, id)
				line.varint(2, 10)
				loc.bytes(4, line.b)
			}
			p.bytes(4, loc.b)
			locs = append(locs, locID)
		}
		var s pbWriter
		if si%2 == 1 {
			for _, l := range locs {
				s.varint(1, l)
			}
			s.varint(2, 1)
			s.varint(2, uint64(ns[si]))
		} else {
			s.packed(1, locs)
			s.packed(2, []uint64{1, uint64(ns[si])})
		}
		p.bytes(2, s.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func frames(names ...string) [][]string {
	fs := make([][]string, len(names))
	for i, n := range names {
		fs[i] = []string{n}
	}
	return fs
}

func TestFoldSyntheticProfile(t *testing.T) {
	const ms = int64(1e6)
	cases := []struct {
		stack  [][]string
		ns     int64
		bucket string
	}{
		{frames("dlrmsim/internal/memsim.(*Cache).Access", "dlrmsim/internal/cpusim.(*Core).Step", "runtime.goexit"), 10 * ms, "memsim"},
		{frames("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), 20 * ms, "gc"},
		{frames("runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "dlrmsim/internal/cluster.(*openRun).step"), 25 * ms, "gc"},
		{frames("runtime.mallocgc", "dlrmsim/internal/cluster.(*openRun).step"), 30 * ms, "runtime"},
		{frames("internal/runtime/maps.(*Map).getWithKey", "dlrmsim/internal/exp.cellKey"), 35 * ms, "runtime"},
		{frames("sort.insertionSort", "sort.Slice", "dlrmsim/internal/cluster.summary"), 40 * ms, "cluster"},
		{[][]string{{"dlrmsim/internal/memsim.(*Cache).hit", "dlrmsim/internal/cpusim.(*Core).load"}, {"dlrmsim/internal/core.Run"}}, 50 * ms, "memsim"},
		{frames("dlrmsim/internal/eventq.(*Heap[...]).Push", "dlrmsim/internal/cluster.(*openRun).step"), 55 * ms, "eventq"},
		{frames("crypto/sha256.block", "main.digestOf", "main.runOp"), 60 * ms, "other"},
		{frames("dlrmsim/internal/check.Assert", "dlrmsim/internal/serve.(*Queue).Submit"), 65 * ms, "check"},
		{frames("time.now", "runtime.main"), 70 * ms, "other"},
	}
	var stacks [][][]string
	var ns []int64
	var total int64
	want := map[string]int64{}
	for _, c := range cases {
		stacks = append(stacks, c.stack)
		ns = append(ns, c.ns)
		total += c.ns
		want[c.bucket] += c.ns
	}
	p, err := decodeProfile(bytes.NewReader(synthProfile(t, stacks, ns)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := fold(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalNs != total || f.Samples != len(cases) {
		t.Fatalf("fold total %d ns over %d samples, want %d over %d", f.TotalNs, f.Samples, total, len(cases))
	}
	for b, v := range want {
		if f.Buckets[b] != v {
			t.Errorf("bucket %s = %d ns, want %d", b, f.Buckets[b], v)
		}
	}
	if len(f.Buckets) != len(want) {
		t.Errorf("buckets %v, want %v", f.Buckets, want)
	}

	m := cpuMetrics(f)
	var sum float64
	for _, v := range m {
		sum += v
	}
	if math.Abs(sum-float64(total)/1e9) > 1e-9 {
		t.Errorf("cpu.* sum to %g s, want the sampled total %g s", sum, float64(total)/1e9)
	}
	if got, want := m["cpu.other_s"], float64(60+65+70)*1e-3; math.Abs(got-want) > 1e-9 {
		t.Errorf("cpu.other_s = %g, want %g (main, time, and internal/check which has no bucket)", got, want)
	}
	if got := m["cpu.gc_s"]; math.Abs(got-0.045) > 1e-9 {
		t.Errorf("cpu.gc_s = %g, want 0.045", got)
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok && len(d.Name) > 4 && d.Name[:4] == "cpu." {
			t.Errorf("cpuMetrics lacks %s", d.Name)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"runtime.mallocgc": "runtime",
		"dlrmsim/internal/cluster.(*openRun).step.func1": "dlrmsim/internal/cluster",
		"dlrmsim/internal/eventq.(*Heap[...]).Push":      "dlrmsim/internal/eventq",
		"internal/runtime/maps.(*Map).getWithKey":        "internal/runtime/maps",
		"main.main":           "main",
		"crypto/sha256.block": "crypto/sha256",
		"dlrmsim/internal/eventq.Push[go.shape.struct {}]": "dlrmsim/internal/eventq",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDecodeProfileRejectsTruncation(t *testing.T) {
	raw := []byte{0x12, 0x05, 0x01} // field 2, length 5, one byte of payload
	if _, err := decodeProfile(bytes.NewReader(raw)); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
