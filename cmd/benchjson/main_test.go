package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture is a complete two-package `go test -bench -count 2` capture.
const capture = `goos: linux
goarch: amd64
pkg: dlrmsim
cpu: Test CPU @ 2.10GHz
BenchmarkCalibration-2   	    1000	   1000000 ns/op	       0 B/op	       0 allocs/op
BenchmarkCalibration-2   	    1000	    900000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSweepParallel-2 	       2	2405368576 ns/op	         1.023 parallel-x	23920264 B/op	  103903 allocs/op
BenchmarkSweepParallel-2 	       2	2571424361 ns/op	         0.9815 parallel-x	23920264 B/op	  103903 allocs/op
PASS
ok  	dlrmsim	12.345s
goos: linux
goarch: amd64
pkg: dlrmsim/internal/cluster
cpu: Test CPU @ 2.10GHz
BenchmarkClusterSimulate/steady-2         	      87	  24451545 ns/op	 5612096 B/op	      41 allocs/op
PASS
ok  	dlrmsim/internal/cluster	4.528s
`

func parseString(t *testing.T, s string) (*File, error) {
	t.Helper()
	return parse(bufio.NewScanner(strings.NewReader(s)), "")
}

func TestParseFoldsRepeatsToFastest(t *testing.T) {
	f, err := parseString(t, capture)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	sweep := f.Benchmarks[1]
	if sweep.Name != "BenchmarkSweepParallel" || sweep.Pkg != "dlrmsim" || sweep.NsPerOp != 2405368576 {
		t.Fatalf("sweep row %+v, want the fastest of its two runs", sweep)
	}
	if sweep.Metrics["parallel-x"] != 1.023 {
		t.Fatalf("sweep metrics %v", sweep.Metrics)
	}
	if c := f.Benchmarks[2]; c.Pkg != "dlrmsim/internal/cluster" || c.Name != "BenchmarkClusterSimulate/steady" {
		t.Fatalf("cluster row %+v", c)
	}
}

// TestParseRejectsTruncatedCapture feeds captures cut off the way an
// interrupted `make bench-json` leaves them: mid-line inside the last
// package, and after a package's rows but before its trailer.
func TestParseRejectsTruncatedCapture(t *testing.T) {
	midLine := capture[:strings.Index(capture, "BenchmarkSweepParallel-2")] + "BenchmarkSweepParallel-2 \t"
	noTrailer := strings.TrimSuffix(capture, "PASS\nok  \tdlrmsim/internal/cluster\t4.528s\n")
	failed := strings.Replace(capture, "PASS\nok  \tdlrmsim\t12.345s", "--- FAIL: BenchmarkSweepParallel\nFAIL\tdlrmsim\t12.345s", 1)
	for name, in := range map[string]string{"mid-line": midLine, "no trailer": noTrailer, "failed package": failed} {
		if _, err := parseString(t, in); err == nil || !strings.Contains(err.Error(), "trailer") {
			t.Errorf("%s: parse error %v, want a missing-trailer error", name, err)
		}
	}
}

// TestParseRejectsMissingBenchmark checks the capture against the -bench
// regex it was run with: every top-level alternative must match a row.
func TestParseRejectsMissingBenchmark(t *testing.T) {
	parseWith := func(re string) error {
		_, err := parse(bufio.NewScanner(strings.NewReader(capture)), re)
		return err
	}
	for _, re := range []string{
		"BenchmarkSweepParallel|BenchmarkClusterSimulate|BenchmarkCalibration",
		"Benchmark(SweepParallel|Calibration)|BenchmarkClusterSimulate",
		"BenchmarkSweep[A-Z|]|Calibration",
	} {
		if err := parseWith(re); err != nil {
			t.Errorf("complete capture rejected under %q: %v", re, err)
		}
	}
	err := parseWith("BenchmarkSweepParallel|BenchmarkZipfShared|BenchmarkCalibration")
	if err == nil || !strings.Contains(err.Error(), `"BenchmarkZipfShared"`) {
		t.Fatalf("capture missing BenchmarkZipfShared: parse error %v, want one naming it", err)
	}
	if err := parseWith("Benchmark(Sweep"); err == nil {
		t.Fatalf("malformed -bench regex accepted")
	}
}

// writeFile stores benchmarks as a BENCH JSON file and returns its path.
func writeFile(t *testing.T, name string, bs ...Benchmark) string {
	t.Helper()
	data, err := json.Marshal(File{Schema: schema, Benchmarks: bs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compareOutput runs compare and returns what it printed.
func compareOutput(t *testing.T, oldPath, newPath string, gate float64) (string, error) {
	t.Helper()
	var out strings.Builder
	err := compare(&out, oldPath, newPath, gate, "BenchmarkCalibration")
	return out.String(), err
}

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Pkg: "dlrmsim", Name: name, Iterations: 1, NsPerOp: ns, AllocsOp: allocs}
}

func TestCompareGate(t *testing.T) {
	canary := bench("BenchmarkCalibration", 1000, 0)
	steady := bench("BenchmarkSteady", 100, 10)
	old := writeFile(t, "old.json", canary, steady, bench("BenchmarkGone", 50, 1))

	t.Run("dropped", func(t *testing.T) {
		out, err := compareOutput(t, old, writeFile(t, "new.json", canary, steady), 10)
		if err == nil {
			t.Fatalf("gate passed a dropped benchmark:\n%s", out)
		}
		if !strings.Contains(out, "(dropped)") || !strings.Contains(out, "REGRESSION dlrmsim.BenchmarkGone: dropped") {
			t.Fatalf("output does not report the dropped row:\n%s", out)
		}
		// Without -gate the drop is reported, not fatal.
		if out, err := compareOutput(t, old, writeFile(t, "new.json", canary, steady), 0); err != nil || !strings.Contains(out, "(dropped)") {
			t.Fatalf("ungated compare: err %v, output:\n%s", err, out)
		}
	})
	t.Run("new", func(t *testing.T) {
		out, err := compareOutput(t, old, writeFile(t, "new.json", canary, steady, bench("BenchmarkGone", 50, 1), bench("BenchmarkFresh", 70, 3)), 10)
		if err != nil {
			t.Fatalf("gate failed on an added benchmark: %v\n%s", err, out)
		}
		if !strings.Contains(out, "(new)") {
			t.Fatalf("output does not mark the new row:\n%s", out)
		}
	})
	t.Run("regressed", func(t *testing.T) {
		// The host got 2x slower (canary 1000 -> 2000 ns): a 2x slower
		// benchmark is no regression, a 3x slower one is.
		slowHost := bench("BenchmarkCalibration", 2000, 0)
		gone := bench("BenchmarkGone", 100, 1)
		if out, err := compareOutput(t, old, writeFile(t, "new.json", slowHost, bench("BenchmarkSteady", 200, 10), gone), 10); err != nil {
			t.Fatalf("host drift flagged as a regression: %v\n%s", err, out)
		}
		out, err := compareOutput(t, old, writeFile(t, "new.json", slowHost, bench("BenchmarkSteady", 300, 10), gone), 10)
		if err == nil || !strings.Contains(out, "REGRESSION dlrmsim.BenchmarkSteady") {
			t.Fatalf("calibrated ns/op regression passed: %v\n%s", err, out)
		}
		out, err = compareOutput(t, old, writeFile(t, "new.json", canary, bench("BenchmarkSteady", 100, 20), bench("BenchmarkGone", 50, 1)), 10)
		if err == nil || !strings.Contains(out, "allocs/op 10→20") {
			t.Fatalf("allocs/op regression passed: %v\n%s", err, out)
		}
	})
}

// TestCompareRetiredRows: a dropped row on the retired list is printed
// with the deletion that retired it and passes the gate; a dropped row
// off the list still fails it.
func TestCompareRetiredRows(t *testing.T) {
	canary := bench("BenchmarkCalibration", 1000, 0)
	steady := bench("BenchmarkSteady", 100, 10)
	wheel := Benchmark{Pkg: "dlrmsim/internal/eventq", Name: "BenchmarkEventQueue/wheel", Iterations: 1, NsPerOp: 5e6}
	next := writeFile(t, "new.json", canary, steady)

	out, err := compareOutput(t, writeFile(t, "old.json", canary, steady, wheel), next, 10)
	if err != nil {
		t.Fatalf("gate failed on a retired row: %v\n%s", err, out)
	}
	why, _ := retiredBy(key(wheel))
	want := "(retired)   " + why
	if !strings.Contains(out, key(wheel)) || !strings.Contains(out, want) {
		t.Fatalf("output does not report the retired row with its deletion %q:\n%s", want, out)
	}

	out, err = compareOutput(t, writeFile(t, "old.json", canary, steady, wheel, bench("BenchmarkGone", 50, 1)), next, 10)
	if err == nil || !strings.Contains(out, "REGRESSION dlrmsim.BenchmarkGone: dropped") {
		t.Fatalf("gate passed an unlisted dropped row: %v\n%s", err, out)
	}
	if strings.Contains(out, "REGRESSION "+key(wheel)) {
		t.Fatalf("retired row reported as a regression:\n%s", out)
	}
}
