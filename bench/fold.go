package main

// A minimal reader for the gzip-compressed profile.proto files
// runtime/pprof writes, enough to fold a CPU profile by package without
// `go tool pprof`. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// profile is the part of a decoded profile the fold needs.
type profile struct {
	sampleTypes []string            // "type/unit" per sample value
	samples     []sample            // location ids leaf first, and values
	locations   map[uint64][]uint64 // location id → function ids, innermost (inlined) first
	functions   map[uint64]string   // function id → name
}

type sample struct {
	locs   []uint64
	values []int64
}

var errTruncated = errors.New("profile: truncated field")

// pbField is one decoded protobuf field: its number, wire type, and
// either a varint value or a length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// pbFields decodes the fields of one protobuf message.
func pbFields(b []byte) ([]pbField, error) {
	var fs []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// varints appends a repeated varint field, packed or not.
func varints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// decodeProfile reads a gzip-compressed (or raw) profile.proto.
func decodeProfile(r io.Reader) (*profile, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	fs, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	for _, f := range fs {
		if f.num == 6 {
			strs = append(strs, string(f.data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, f := range fs {
		if f.wire != 2 || f.num == 3 || f.num > 5 {
			continue // only sample types, samples, locations and functions
		}
		sub, err := pbFields(f.data)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case 1: // sample_type
			var typ, unit uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					typ = s.v
				case 2:
					unit = s.v
				}
			}
			p.sampleTypes = append(p.sampleTypes, str(typ)+"/"+str(unit))
		case 2: // sample
			var locs, vals []uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					locs, err = varints(locs, s)
				case 2:
					vals, err = varints(vals, s)
				}
				if err != nil {
					return nil, err
				}
			}
			sm := sample{locs: locs, values: make([]int64, len(vals))}
			for i, v := range vals {
				sm.values[i] = int64(v)
			}
			p.samples = append(p.samples, sm)
		case 4: // location
			var id uint64
			var fns []uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.v
				case 4: // line
					ls, err := pbFields(s.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5: // function
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.v
				case 2:
					name = s.v
				}
			}
			p.functions[id] = str(name)
		}
	}
	return p, nil
}

// cpuFold is a CPU profile's sampled time split into buckets: one per
// dlrmsim/internal package, "gc", "runtime" and "other".
type cpuFold struct {
	TotalNs int64            `json:"total_ns"`
	Samples int              `json:"samples"`
	Buckets map[string]int64 `json:"buckets_ns"`
}

// fold assigns every sample's CPU time to one bucket by classify.
func fold(p *profile) (cpuFold, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu/nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return cpuFold{}, fmt.Errorf("profile: no cpu/nanoseconds sample type in %v", p.sampleTypes)
	}
	f := cpuFold{Buckets: map[string]int64{}}
	var stack []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return cpuFold{}, fmt.Errorf("profile: sample with %d values, want > %d", len(s.values), vi)
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.functions[fn])
			}
		}
		v := s.values[vi]
		f.Buckets[classify(stack)] += v
		f.TotalNs += v
		f.Samples++
	}
	return f, nil
}

// gcFrames are the runtime functions (by prefix) through which the
// garbage collector does its work: background and assist marking,
// sweeping, scavenging, and the write barrier.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.(*gcWork)",
	"runtime.wbBuf", "runtime.deductSweepCredit", "runtime.(*mheap).reclaim",
}

// classify names the bucket of one sample, given its stack leaf first
// with inlined frames expanded:
//   - "gc" when any frame is a garbage-collector frame;
//   - "runtime" when the leaf is in the runtime;
//   - the package name when the first frame that is not in the rest of
//     the standard library (math, sort, sync, fmt, ...) is in
//     dlrmsim/internal/<package>, so a library call counts against the
//     layer that made it;
//   - "other" otherwise (the benchmark's own code, unattributed stdlib).
func classify(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	if len(stack) > 0 && isRuntime(funcPackage(stack[0])) {
		return "runtime"
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if rest, ok := strings.CutPrefix(pkg, "dlrmsim/internal/"); ok {
			name, _, _ := strings.Cut(rest, "/")
			return name
		}
		if pkg == "main" || strings.HasPrefix(pkg, "dlrmsim") {
			return "other"
		}
	}
	return "other"
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// funcPackage returns the import path of a symbol name such as
// "dlrmsim/internal/eventq.(*Heap[...]).Push".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuMetrics turns a fold into the declared cpu.* metrics in seconds.
// Internal packages without a bucket of their own count as other, so the
// values always sum to the total sampled CPU.
func cpuMetrics(f cpuFold) map[string]float64 {
	m := map[string]float64{}
	own := map[string]bool{"gc": true, "runtime": true}
	for _, p := range cpuPackages {
		own[p] = true
		m["cpu."+p+"_s"] = 0
	}
	m["cpu.gc_s"], m["cpu.runtime_s"], m["cpu.other_s"] = 0, 0, 0
	for b, ns := range f.Buckets {
		name := "cpu.other_s"
		if own[b] {
			name = "cpu." + b + "_s"
		}
		m[name] += float64(ns) / 1e9
	}
	return m
}

// writeFold renders a fold as text, largest bucket first.
func writeFold(w io.Writer, f cpuFold) error {
	type kv struct {
		k string
		v int64
	}
	var rows []kv
	for k, v := range f.Buckets {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].k < rows[j].k
	})
	if _, err := fmt.Fprintf(w, "# CPU seconds by bucket, %d samples, %.3f s total\n", f.Samples, float64(f.TotalNs)/1e9); err != nil {
		return err
	}
	for _, r := range rows {
		pct := 0.0
		if f.TotalNs > 0 {
			pct = 100 * float64(r.v) / float64(f.TotalNs)
		}
		if _, err := fmt.Fprintf(w, "%-10s %9.3f s %6.2f%%\n", r.k, float64(r.v)/1e9, pct); err != nil {
			return err
		}
	}
	return nil
}
