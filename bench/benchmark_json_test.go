package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root declares the same workloads and
// metrics, in the same order, as this package.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %q, want [bench]", bj.Paths)
	}
	if len(bj.Command) == 0 || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("command %q, run_seconds %d", bj.Command, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want %s with a why of at most 200 characters", i, w, workloads[i].name)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []metricJSON, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, w)
			}
			if bounded && (m.Bound == nil || *m.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, want %g in (0, 0.25]", kind, m.Name, m.Bound, w.Bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s %s has a bound", kind, m.Name)
			}
			if !nameRE.MatchString(m.Name) || len(m.Name) > 64 || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: malformed name or unit in %+v", kind, m)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, m := range append(append([]metricJSON(nil), bj.EndToEnd...), bj.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}
