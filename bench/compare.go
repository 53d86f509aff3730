package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadResults reads the result files (written with -out) a pattern names:
// every *.json in a directory, or the files a glob matches.
func loadResults(pattern string) ([]*result, error) {
	if st, err := os.Stat(pattern); err == nil && st.IsDir() {
		pattern = filepath.Join(pattern, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	var rs []*result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &result{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Meta.Workload == "" || r.Metrics == nil {
			return nil, fmt.Errorf("%s: not a bench result file", p)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

func selectRuns(rs []*result, workload string, traced bool) []*result {
	var out []*result
	for _, r := range rs {
		if r.Meta.Workload == workload && r.Meta.Traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(rs []*result, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// judge compares one end-to-end metric's runs on the parent (p) and the
// change (c):
//   - "unresolved" when the parent's interquartile spread exceeds the
//     bound, unless every change run beats every parent run;
//   - "WORSE" when the change's median is worse than the parent's by more
//     than the bound;
//   - "ok" otherwise.
func judge(m metricDef, p, c []float64) string {
	pm, cm := median(p), median(c)
	q1, _, q3 := quartiles(p)
	sp, sc := sortedCopy(p), sortedCopy(c)
	worse := cm > pm*(1+m.Bound)
	allBeat := sc[len(sc)-1] < sp[0]
	if m.Better == "higher" {
		worse = cm < pm*(1-m.Bound)
		allBeat = sc[0] > sp[len(sp)-1]
	}
	switch {
	case pm != 0 && (q3-q1)/pm > m.Bound && !allBeat:
		return "unresolved"
	case worse:
		return "WORSE"
	}
	return "ok"
}

// runCompare prints, per workload, both sides' median and quartiles of
// every end-to-end metric with a verdict, checks that both sides produced
// the same digest for every seed they share, and prints the tracing
// overhead when traced result files are given. It reports false when a
// metric is worse beyond its bound or a digest differs.
func runCompare(parentPat, changePat string, w io.Writer) (bool, error) {
	parent, err := loadResults(parentPat)
	if err != nil {
		return false, err
	}
	change, err := loadResults(changePat)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range workloads {
		pu, cu := selectRuns(parent, wl.name, false), selectRuns(change, wl.name, false)
		pt, ct := selectRuns(parent, wl.name, true), selectRuns(change, wl.name, true)
		if len(pu)+len(cu)+len(pt)+len(ct) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: parent %d runs, change %d runs (untraced)\n", wl.name, len(pu), len(cu))
		if len(pu) > 0 && len(cu) > 0 {
			for _, m := range endToEnd {
				p, c := metricValues(pu, m.Name), metricValues(cu, m.Name)
				if len(p) == 0 || len(c) == 0 {
					fmt.Fprintf(w, "  %-12s missing\n", m.Name)
					ok = false
					continue
				}
				v := judge(m, p, c)
				if v == "WORSE" {
					ok = false
				}
				pq1, pm, pq3 := quartiles(p)
				cq1, cm, cq3 := quartiles(c)
				delta := 0.0
				if pm != 0 {
					delta = 100 * (median(c)/median(p) - 1)
				}
				fmt.Fprintf(w, "  %-12s parent %s [%s %s]  change %s [%s %s]  %+.2f%%  bound %.0f%%  %s\n",
					m.Name, g4(pm), g4(pq1), g4(pq3), g4(cm), g4(cq1), g4(cq3), delta, 100*m.Bound, v)
			}
		}
		msg, same := compareDigests(append(pu, pt...), append(cu, ct...))
		if !same {
			ok = false
		}
		fmt.Fprintf(w, "  digest       %s\n", msg)
		if len(pt) > 0 || len(ct) > 0 {
			fmt.Fprintf(w, "  trace.overhead_pct parent %s (%d traced)  change %s (%d traced)\n",
				g4(median(metricValues(pt, "trace.overhead_pct"))), len(pt),
				g4(median(metricValues(ct, "trace.overhead_pct"))), len(ct))
		}
	}
	return ok, nil
}

// compareDigests checks that every run of one seed, on either side, has
// the same digest.
func compareDigests(parent, change []*result) (string, bool) {
	bySeed := map[uint64]map[string]bool{}
	shared := map[uint64][2]bool{}
	for side, rs := range [][]*result{parent, change} {
		for _, r := range rs {
			if bySeed[r.Meta.Seed] == nil {
				bySeed[r.Meta.Seed] = map[string]bool{}
			}
			bySeed[r.Meta.Seed][r.Digest] = true
			s := shared[r.Meta.Seed]
			s[side] = true
			shared[r.Meta.Seed] = s
		}
	}
	var seeds []uint64
	for s := range bySeed {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
	both := 0
	for _, s := range seeds {
		if len(bySeed[s]) > 1 {
			return fmt.Sprintf("DIFFERS on seed %d", s), false
		}
		if shared[s] == [2]bool{true, true} {
			both++
		}
	}
	return fmt.Sprintf("equal on all %d seeds (%d run on both sides)", len(seeds), both), true
}

func g4(v float64) string { return fmt.Sprintf("%.4g", v) }
