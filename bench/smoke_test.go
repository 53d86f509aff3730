package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every workload, untraced and traced, at the tiny size: each declared
// metric is printed with its unit, every name is well formed, the summary
// line parses, and the outputs check out.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := run(runConfig{workload: w.name, seed: 1, traced: traced, traceDir: dir, size: tinySize})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := printResult(&out, r); err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			checkOutput(t, w.name, traced, out.String())
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s traced=%t: failed %d of %d: %q", w.name, traced, r.Failed, r.Attempted, r.Problems)
			}
			if traced {
				checkTraceFiles(t, r, runConfig{workload: w.name, seed: 1, traceDir: dir})
			}
		}
	}
}

func checkOutput(t *testing.T, workload string, traced bool, out string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 5 || !strings.HasPrefix(f[4], "n=") {
			continue
		}
		if f[0] != workload {
			t.Errorf("line %q does not start with the workload", l)
		}
		if !nameRE.MatchString(f[1]) {
			t.Errorf("metric name %q does not match %s", f[1], nameRE)
		}
		if _, err := strconv.ParseFloat(f[2], 64); err != nil {
			t.Errorf("line %q: value: %v", l, err)
		}
		if _, err := strconv.Atoi(f[4][2:]); err != nil {
			t.Errorf("line %q: sample count: %v", l, err)
		}
		units[f[1]] = f[3]
	}
	for _, d := range declared(traced) {
		if u, ok := units[d.Name]; !ok {
			t.Errorf("%s traced=%t: %s not printed", workload, traced, d.Name)
		} else if u != d.Unit {
			t.Errorf("%s traced=%t: %s printed in %s, declared in %s", workload, traced, d.Name, u, d.Unit)
		}
	}

	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("%s traced=%t: last line: %v", workload, traced, err)
	}
	if len(keys) != 4 {
		t.Errorf("summary keys %v, want correct, attempted, failed, metrics", keys)
	}
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
		t.Errorf("%s traced=%t: summary %+v", workload, traced, s)
	}
	if len(s.Metrics) != len(declared(traced)) {
		t.Errorf("%s traced=%t: %d summary metrics, want %d", workload, traced, len(s.Metrics), len(declared(traced)))
	}
	for _, d := range declared(traced) {
		if v, ok := s.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s traced=%t: summary %s = %+v, want unit %s", workload, traced, d.Name, v, d.Unit)
		}
	}
	if !traced {
		for _, d := range endToEnd {
			if s.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %g, want > 0", workload, d.Name, s.Metrics[d.Name].Value)
			}
		}
	}
}

func checkTraceFiles(t *testing.T, r *result, cfg runConfig) {
	t.Helper()
	if r.Fold == nil || r.Fold.Samples == 0 {
		t.Logf("%s: no CPU samples in the tiny traced phase", cfg.workload)
	} else {
		var sum float64
		for _, p := range perLayer {
			if strings.HasPrefix(p.Name, "cpu.") {
				sum += r.Metrics[p.Name].Value
			}
		}
		if total := float64(r.Fold.TotalNs) / 1e9; math.Abs(sum-total) > 0.01*total {
			t.Errorf("%s: cpu.* sum to %g s, sampled total %g s", cfg.workload, sum, total)
		}
	}
	suffixes := []string{"fold.txt"}
	for k := 0; k < traceRounds; k++ {
		suffixes = append(suffixes, fmt.Sprintf("cpu%d.pprof", k))
	}
	for _, suffix := range suffixes {
		if st, err := os.Stat(r.tracePath(cfg, suffix)); err != nil || st.Size() == 0 {
			t.Errorf("%s: %s missing or empty (%v)", cfg.workload, suffix, err)
		}
	}
	f, err := os.Open(r.tracePath(cfg, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s span %q: %v", cfg.workload, sc.Text(), err)
		}
		if s.EndNs < s.StartNs || s.Workload != cfg.workload {
			t.Errorf("%s: bad span %+v", cfg.workload, s)
		}
		names[s.Name]++
	}
	for _, want := range []string{cfg.workload, "setup", "warmup", "timed"} {
		if names[want] == 0 {
			t.Errorf("%s: no %q span in %v", cfg.workload, want, names)
		}
	}
}
