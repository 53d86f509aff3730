package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		m    metricDef
		p, c []float64
		want string
	}{
		{lower, steady, []float64{103, 104, 102, 103, 101}, "ok"},
		{lower, steady, []float64{120, 121, 119, 118, 122}, "WORSE"},
		{higher, steady, []float64{85, 86, 84, 85, 87}, "WORSE"},
		{higher, steady, []float64{120, 121, 119, 118, 122}, "ok"},
		// The parent's own spread exceeds the bound: unresolved, unless
		// every change run beats every parent run.
		{lower, []float64{80, 100, 130, 90, 120}, []float64{125, 126, 124, 123, 127}, "unresolved"},
		{lower, []float64{80, 100, 130, 90, 120}, []float64{60, 61, 59, 62, 58}, "ok"},
	} {
		if got := judge(c.m, c.p, c.c); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Name, c.p, c.c, got, c.want)
		}
	}
}

func writeRuns(t *testing.T, dir, workload string, p50s []float64, digest string) {
	t.Helper()
	for i, v := range p50s {
		r := newResult(workload, uint64(i%2+1))
		r.Digest = digest
		for _, m := range endToEnd {
			r.Metrics[m.Name] = metricVal{Value: 1, Unit: m.Unit}
		}
		r.Metrics["op_p50_ms"] = metricVal{Value: v, Unit: "ms"}
		if err := writeResult(filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, i)), r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunCompare(t *testing.T) {
	parent, same, slower, otherDigest := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	writeRuns(t, parent, "open_day", []float64{100, 101, 99, 100, 102}, "aa")
	writeRuns(t, same, "open_day", []float64{101, 100, 102, 99, 100}, "aa")
	writeRuns(t, slower, "open_day", []float64{130, 131, 129, 130, 132}, "aa")
	writeRuns(t, otherDigest, "open_day", []float64{101, 100, 102, 99, 100}, "bb")
	for _, c := range []struct {
		change string
		ok     bool
		want   string
	}{
		{same, true, "equal on all 2 seeds"},
		{slower, false, "WORSE"},
		{otherDigest, false, "DIFFERS on seed 1"},
	} {
		var out bytes.Buffer
		ok, err := runCompare(parent, c.change, &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("compare ok=%t, want %t with %q in:\n%s", ok, c.ok, c.want, out.String())
		}
	}
	if _, err := runCompare(filepath.Join(parent, "none-*.json"), same, &bytes.Buffer{}); err == nil {
		t.Error("a pattern matching no files was accepted")
	}
}
