// Command benchjson converts `go test -bench` output into the repo's
// BENCH_<n>.json perf-trajectory format, and compares two such files.
//
// Usage:
//
//	go test -bench "$RE" -benchmem ./... | benchjson -bench "$RE" -out BENCH_1.json
//	benchjson -compare BENCH_0.json BENCH_1.json
//	benchjson -compare -gate 10 -calibrate BenchmarkCalibration BENCH_1.json BENCH_2.json
//
// The JSON records, per benchmark: iterations, ns/op, B/op, allocs/op, and
// every custom metric the benchmark reported (parallel-x, p95-ms, …), so
// one file captures both host-side speed and the artifact's headline
// quantities. Compare mode prints old→new ns/op and allocs/op ratios —
// a benchstat-shaped summary with no external dependency.
//
// Parse mode rejects a capture in which any package's section lacks its
// closing `PASS`/`ok` trailer: that is what a capture cut off mid-run (or
// a failed package) looks like, and folding it would commit a point with
// benchmarks silently missing. Given -bench, the regex the capture was run
// with, it also rejects a capture in which one of the regex's top-level
// alternatives matches no row: a benchmark the point is meant to hold was
// deleted, renamed, or left out of the captured packages.
//
// Repeated rows for one benchmark (a `-count N` capture) fold to the
// fastest run: shared hosts suffer episodic noisy-neighbor slowdowns
// that inflate individual runs by 20–40%, and the minimum is the
// standard estimator that rejects them (a run can be unlucky-slow, never
// unlucky-fast). `make bench-json` captures with -count 3 for exactly
// this reason.
//
// -gate N makes compare exit nonzero when any benchmark regresses more
// than N% in ns/op or allocs/op, or is present in the old file but
// missing from the new one (printed as "(dropped)") — the
// perf-regression gate CI runs on the committed trajectory. Because
// successive BENCH_<n> points are captured in different sessions on
// hosts whose effective speed drifts (turbo, contention, microcode), raw
// wall-clock gating false-fails; -calibrate names a canary benchmark
// (first of a comma list present in both files) whose ns/op ratio
// estimates the host-speed drift, and gated ns/op ratios are normalized
// by it. The canary must be a fixed pure-CPU
// workload no simulator change touches.
//
// When -gate and -calibrate are both set but no canary exists in BOTH
// files, the ns/op gate is skipped (exit 0, table still printed): the
// older point predates the calibration infrastructure, and uncalibrated
// cross-host ratios false-fail on host drift alone. Allocs/op — which
// doesn't drift with host speed — is still gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's result row.
type Benchmark struct {
	Pkg        string             `json:"pkg"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_<n>.json document.
type File struct {
	Schema     string      `json:"schema"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

const schema = "dlrmsim-bench/v1"

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// parse reads a `go test -bench` capture. benchRegex, when not empty, is
// the -bench regex it was run with; every top-level alternative of it must
// match at least one row.
func parse(r *bufio.Scanner, benchRegex string) (*File, error) {
	f := &File{Schema: schema}
	pkg := ""
	open := false // pkg's section has not reached its PASS/ok trailer
	seen := map[string]int{}
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		switch {
		case line == "PASS" || strings.HasPrefix(line, "ok "):
			open = false
		case strings.HasPrefix(line, "goos: "):
			f.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			if open {
				return nil, untrailed(pkg)
			}
			pkg = strings.TrimPrefix(line, "pkg: ")
			open = true
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		b := Benchmark{Pkg: pkg, Name: trimProcs(m[1]), Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value in %q: %w", line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		// Fold -count repeats: keep the fastest run (see package comment).
		if i, ok := seen[key(b)]; ok {
			if b.NsPerOp < f.Benchmarks[i].NsPerOp {
				f.Benchmarks[i] = b
			}
			continue
		}
		seen[key(b)] = len(f.Benchmarks)
		f.Benchmarks = append(f.Benchmarks, b)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if open {
		return nil, untrailed(pkg)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	for _, alt := range alternatives(benchRegex) {
		re, err := regexp.Compile(alt)
		if err != nil {
			return nil, fmt.Errorf("-bench alternative %q: %w", alt, err)
		}
		if !slices.ContainsFunc(f.Benchmarks, func(b Benchmark) bool { return re.MatchString(b.Name) }) {
			return nil, fmt.Errorf("no benchmark in the capture matches %q of the -bench regex (deleted, renamed, or its package not captured)", alt)
		}
	}
	return f, nil
}

// alternatives splits a regex at its top-level '|'s, those outside any
// group or character class. It returns nil for an empty regex.
func alternatives(re string) []string {
	if re == "" {
		return nil
	}
	var alts []string
	depth, start, inClass := 0, 0, false
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case inClass:
			inClass = c != ']'
		case c == '[':
			inClass = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, re[start:i])
			start = i + 1
		}
	}
	return append(alts, re[start:])
}

func untrailed(pkg string) error {
	return fmt.Errorf("package %s: output has no PASS/ok trailer (truncated or failed capture)", pkg)
}

// trimProcs drops the trailing -GOMAXPROCS suffix so names are stable
// across machines.
func trimProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func key(b Benchmark) string { return b.Pkg + "." + b.Name }

// findCanary returns the host-speed scale factor new/old from the first
// calibration benchmark (comma list, matched on bare Name) present in
// both files, plus its name ("" and 1.0 when none matches).
func findCanary(of, nf *File, calibrate string) (string, float64) {
	byName := func(f *File, name string) (Benchmark, bool) {
		for _, b := range f.Benchmarks {
			if b.Name == name {
				return b, true
			}
		}
		return Benchmark{}, false
	}
	for _, name := range strings.Split(calibrate, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		ob, okOld := byName(of, name)
		nb, okNew := byName(nf, name)
		if okOld && okNew && ob.NsPerOp > 0 && nb.NsPerOp > 0 {
			return name, nb.NsPerOp / ob.NsPerOp
		}
	}
	return "", 1.0
}

func compare(w io.Writer, oldPath, newPath string, gatePct float64, calibrate string) error {
	of, err := load(oldPath)
	if err != nil {
		return err
	}
	nf, err := load(newPath)
	if err != nil {
		return err
	}
	canary, scale := "", 1.0
	gateNs := gatePct > 0
	if calibrate != "" {
		if canary, scale = findCanary(of, nf, calibrate); canary != "" {
			fmt.Fprintf(w, "calibrated by %s: host speed factor %.3f (new/old ns)\n", canary, scale)
		} else {
			fmt.Fprintf(w, "calibration: no benchmark of %q in both files; ns/op shown raw\n", calibrate)
			if gateNs {
				gateNs = false
				fmt.Fprintf(w, "gate: ns/op gate skipped (pre-calibration trajectory point); allocs/op still gated\n")
			}
		}
	}
	olds := map[string]Benchmark{}
	for _, b := range of.Benchmarks {
		olds[key(b)] = b
	}
	var names []string
	news := map[string]Benchmark{}
	for _, b := range nf.Benchmarks {
		news[key(b)] = b
		names = append(names, key(b))
	}
	for name := range olds {
		if _, ok := news[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var failures []string
	fmt.Fprintf(w, "%-52s %14s %14s %8s %12s\n", "benchmark", "old ns/op", "new ns/op", "speedup", "allocs o→n")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 104))
	for _, name := range names {
		nb, inNew := news[name]
		ob, inOld := olds[name]
		if !inNew {
			fmt.Fprintf(w, "%-52s %14.0f %14s %8s %12.0f\n", name, ob.NsPerOp, "(dropped)", "", ob.AllocsOp)
			if gatePct > 0 {
				failures = append(failures, fmt.Sprintf("%s: dropped (in %s, missing from %s)", name, oldPath, newPath))
			}
			continue
		}
		if !inOld {
			fmt.Fprintf(w, "%-52s %14s %14.0f %8s %12.0f\n", name, "(new)", nb.NsPerOp, "", nb.AllocsOp)
			continue
		}
		speed := 0.0
		if nb.NsPerOp > 0 {
			// scale cancels the host-speed drift the canary measured, so
			// this is the code's speedup, not the machine's.
			speed = ob.NsPerOp * scale / nb.NsPerOp
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %7.2fx %6.0f→%.0f\n",
			name, ob.NsPerOp, nb.NsPerOp, speed, ob.AllocsOp, nb.AllocsOp)
		if gatePct <= 0 || nb.Name == canary {
			continue
		}
		if gateNs && speed > 0 && speed < 1-gatePct/100 {
			failures = append(failures, fmt.Sprintf("%s: %.2fx calibrated ns/op (threshold %.2fx)",
				name, speed, 1-gatePct/100))
		}
		// Alloc counts don't drift with host speed; gate them raw, with a
		// two-alloc floor so tiny counts aren't flagged on noise.
		if nb.AllocsOp > ob.AllocsOp*(1+gatePct/100) && nb.AllocsOp-ob.AllocsOp > 2 {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f→%.0f (>%.0f%% growth)",
				name, ob.AllocsOp, nb.AllocsOp, gatePct))
		}
	}
	if len(failures) > 0 {
		fmt.Fprintln(w)
		for _, f := range failures {
			fmt.Fprintf(w, "REGRESSION %s\n", f)
		}
		return fmt.Errorf("%d benchmark(s) dropped or regressed beyond %.0f%%", len(failures), gatePct)
	}
	return nil
}

func main() {
	out := flag.String("out", "", "output JSON path (default stdout)")
	cmp := flag.Bool("compare", false, "compare two BENCH_<n>.json files instead of parsing stdin")
	gate := flag.Float64("gate", 0, "with -compare: exit nonzero on any >N%% ns/op or allocs/op regression")
	calibrate := flag.String("calibrate", "", "with -compare: comma list of canary benchmark names for host-speed normalization")
	benchRegex := flag.String("bench", "", "when parsing: the -bench regex of the capture; fail if any of its top-level alternatives matches no row")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files")
			os.Exit(2)
		}
		if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1), *gate, *calibrate); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	f, err := parse(sc, *benchRegex)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
