// Package pin pins test results by value; only _test.go files import it.
// It walks a result into leaves (struct fields, map entries by sorted key,
// slice and array elements), each printed with %v, a float's shortest
// round-trip form, so equal text means bit-identical values. Check and Near
// report each moved, new or vanished leaf as "<path>: <old> → <new> (+x%)".
package pin

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Update is the -update flag: Check rewrites its value file instead of
// comparing with it, and a test that keeps a golden file rewrites that.
var Update = flag.Bool("update", false, "rewrite the value files (testdata/*.pin) and golden files from the current code")

// leaf is one walked value: its path, its %v text and the value.
type leaf struct {
	path, text string
	v          reflect.Value
}

// leaves appends v's leaves under path to out. An empty slice or map is
// one leaf ("[]", "map[]"), so every field has at least one line.
func leaves(out []leaf, path string, v reflect.Value) []leaf {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return leaves(out, path, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				out = leaves(out, path+"."+f.Name, v.Field(i))
			}
		}
		return out
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = leaves(out, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
		if v.Len() > 0 {
			return out
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			out = leaves(out, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
		if len(keys) > 0 {
			return out
		}
	}
	return append(out, leaf{path, fmt.Sprint(v), v})
}

// Check compares the leaves of cases, usually a map from case name to
// result (paths "[<case>].<field path>"), with the value file
// testdata/<name>.pin, one "<path>\t<value>" line per leaf.
func Check(t testing.TB, name string, cases any) {
	t.Helper()
	check(t, "testdata/"+name+".pin", cases, *Update)
}

func check(t testing.TB, file string, cases any, rewrite bool) {
	t.Helper()
	got := leaves(nil, "", reflect.ValueOf(cases))
	if rewrite {
		var b strings.Builder
		for _, l := range got {
			fmt.Fprintf(&b, "%s\t%s\n", l.path, l.text)
		}
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (go test -update writes it)", err)
	}
	var want []leaf
	for _, line := range strings.Split(strings.TrimSuffix(string(buf), "\n"), "\n") {
		path, text, _ := strings.Cut(line, "\t")
		want = append(want, leaf{path: path, text: text})
	}
	if d := diff(got, want, 0); d != "" {
		t.Errorf("%s differs (go test -update rewrites it):\n%s", file, d)
	}
}

// Near compares the leaves of got with those of want: floats within
// tol·max(1, |want|), everything else, NaN and ±Inf included, as text.
func Near(t testing.TB, got, want any, tol float64) {
	t.Helper()
	if d := diff(leaves(nil, "", reflect.ValueOf(got)), leaves(nil, "", reflect.ValueOf(want)), tol); d != "" {
		t.Errorf("differs beyond %g:\n%s", tol, d)
	}
}

// diff lists every want leaf that got moves or lacks and every got leaf
// that want lacks. Floats match within tol·max(1, |want|) unless their
// difference is NaN or infinite; the rest, and file leaves, by text.
func diff(got, want []leaf, tol float64) string {
	byPath := make(map[string]leaf, len(got))
	for _, g := range got {
		byPath[g.path] = g
	}
	var b strings.Builder
	for _, w := range want {
		g, ok := byPath[w.path]
		if !ok {
			g.text = "vanished"
		}
		delete(byPath, w.path)
		same := g.text == w.text
		if g.v.CanFloat() && w.v.CanFloat() {
			if d := g.v.Float() - w.v.Float(); !math.IsNaN(d) && !math.IsInf(d, 0) {
				same = math.Abs(d) <= tol*max(1, math.Abs(w.v.Float()))
			}
		}
		if !same {
			fmt.Fprintf(&b, "%s: %s → %s%s\n", w.path, w.text, g.text, change(w.text, g.text))
		}
	}
	for _, g := range got {
		if _, ok := byPath[g.path]; ok {
			fmt.Fprintf(&b, "%s: new → %s\n", g.path, g.text)
		}
	}
	return b.String()
}

// change is " (+x%)", the finite relative move from old to new, or "".
func change(old, new string) string {
	a, errA := strconv.ParseFloat(old, 64)
	b, errB := strconv.ParseFloat(new, 64)
	if r := 100 * (b - a) / math.Abs(a); errA == nil && errB == nil && !math.IsNaN(r) && !math.IsInf(r, 0) {
		return fmt.Sprintf(" (%+.3g%%)", r)
	}
	return ""
}
