package pin

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps the errors a check reports instead
// of failing the test that runs it.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// report is every error r holds, joined.
func (r *recorder) report() string { return strings.Join(r.errs, "\n") }

type inner struct {
	Name  string
	Vals  [2]float64
	Empty []int
}

type sample struct {
	Count  int
	Rate   float64
	In     inner
	List   []inner
	ByName map[string]float64
	hidden int
}

func testSample() sample {
	return sample{
		Count:  3,
		Rate:   0.1,
		In:     inner{Name: "Medium Hot", Vals: [2]float64{1.5, -2}},
		List:   []inner{{Name: "a"}},
		ByName: map[string]float64{"rm1|High Hot": 1.25, "a b": 2},
		hidden: 9,
	}
}

// TestLeaves pins the walk: exported struct fields in order, array and
// slice indices, map keys sorted and kept whole, spaces included, and
// empty slices and maps as one leaf each.
func TestLeaves(t *testing.T) {
	var got []string
	for _, l := range leaves(nil, "c", reflect.ValueOf(testSample())) {
		got = append(got, l.path+"\t"+l.text)
	}
	want := []string{
		"c.Count\t3",
		"c.Rate\t0.1",
		"c.In.Name\tMedium Hot",
		"c.In.Vals[0]\t1.5",
		"c.In.Vals[1]\t-2",
		"c.In.Empty\t[]",
		"c.List[0].Name\ta",
		"c.List[0].Vals[0]\t0",
		"c.List[0].Vals[1]\t0",
		"c.List[0].Empty\t[]",
		"c.ByName[a b]\t2",
		"c.ByName[rm1|High Hot]\t1.25",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("leaves:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCheckRoundTrip writes a value file and checks the same cases
// against it, special floats included: they print as +Inf, -Inf, NaN and
// -0, and read back as the same text.
func TestCheckRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "round.pin")
	cases := map[string]any{
		"w/o HW-PF": testSample(),
		"special":   []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)},
	}
	check(t, file, cases, true)
	buf, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"[special][0]\t+Inf\n", "[special][1]\t-Inf\n", "[special][2]\tNaN\n", "[special][3]\t-0\n", "[w/o HW-PF].ByName[a b]\t2\n"} {
		if !strings.Contains(string(buf), line) {
			t.Errorf("value file lacks %q:\n%s", line, buf)
		}
	}
	check(t, file, cases, false)
	r := &recorder{TB: t}
	check(r, file, map[string]any{"w/o HW-PF": testSample(), "special": []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0}}, false)
	if !strings.Contains(r.report(), "[special][3]: -0 → 0\n") {
		t.Errorf("-0 moved to 0 reported as:\n%s", r.report())
	}
}

// TestCheckReportsMoves checks that a moved float reads old → new with
// its relative change, and that new and vanished leaves are each named.
func TestCheckReportsMoves(t *testing.T) {
	file := filepath.Join(t.TempDir(), "moves.pin")
	check(t, file, map[string]any{"c": testSample()}, true)
	s := testSample()
	s.Rate = 0.11
	s.ByName["new key"] = 4
	delete(s.ByName, "a b")
	r := &recorder{TB: t}
	check(r, file, map[string]any{"c": s}, false)
	for _, want := range []string{
		"[c].Rate: 0.1 → 0.11 (+10%)\n",
		"[c].ByName[a b]: 2 → vanished\n",
		"[c].ByName[new key]: new → 4\n",
	} {
		if !strings.Contains(r.report(), want) {
			t.Errorf("report lacks %q:\n%s", want, r.report())
		}
	}
	if n := strings.Count(r.report(), "\n") - 1; n != 3 {
		t.Errorf("report has %d leaf lines, want 3:\n%s", n, r.report())
	}
}

// TestNear checks the tolerance edge, tol·max(1, |want|), and that NaN
// and ±Inf match only themselves: a bare |got − want| > tol test would
// pass NaN against anything.
func TestNear(t *testing.T) {
	type pair struct {
		A, B float64
		S    string
	}
	want := pair{A: 2, B: 0.5, S: "x"}
	for _, tc := range []struct {
		name string
		got  pair
		ok   bool
	}{
		{"equal", want, true},
		{"at tol on a scaled want", pair{2.5, 0.5, "x"}, true},
		{"past tol on a scaled want", pair{math.Nextafter(2.5, 3), 0.5, "x"}, false},
		{"at tol on a small want", pair{2, 0.75, "x"}, true},
		{"past tol on a small want", pair{2, math.Nextafter(0.75, 1), "x"}, false},
		{"text differs", pair{2, 0.5, "y"}, false},
		{"NaN against 1", pair{math.NaN(), 0.5, "x"}, false},
		{"+Inf against 1", pair{math.Inf(1), 0.5, "x"}, false},
	} {
		r := &recorder{TB: t}
		Near(r, tc.got, want, 0.25)
		if ok := len(r.errs) == 0; ok != tc.ok {
			t.Errorf("%s: passed %v, want %v: %s", tc.name, ok, tc.ok, r.report())
		}
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	Near(t, special, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}, 0)
	r := &recorder{TB: t}
	Near(r, want, pair{A: 1, B: 0.5, S: "x"}, 0.25)
	if !strings.Contains(r.report(), ".A: 1 → 2 (+100%)") {
		t.Errorf("moved field reported as:\n%s", r.report())
	}
}
