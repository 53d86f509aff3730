package nn

import (
	"math"
	"strings"
	"testing"

	"dlrmsim/internal/cpusim"
)

func testCross() CrossNet { return CrossNet{Dim: 32, Rank: 8, Layers: 3, Seed: 5} }

func TestCrossNetValidate(t *testing.T) {
	if err := testCross().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		mut   func(*CrossNet)
	}{
		{"Dim", func(c *CrossNet) { c.Dim = 0 }},
		{"Rank", func(c *CrossNet) { c.Rank = 0 }},
		{"Layers", func(c *CrossNet) { c.Layers = -2 }},
	} {
		bad := testCross()
		tc.mut(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) || strings.Contains(err.Error(), "{") {
			t.Errorf("%s: Validate() = %v, want an error naming the field and no struct dump", tc.field, err)
		}
	}
}

func TestStreamConfigPanicNamesField(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   StreamConfig
	}{
		{"FlopsPerCycle", StreamConfig{FlopsPerCycle: 0, Batch: 4}},
		{"Batch", StreamConfig{FlopsPerCycle: 32, Batch: 0}},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), tc.field) || strings.Contains(err.Error(), "{") {
					t.Errorf("%s: panic %v, want an error naming the field and no struct dump", tc.field, err)
				}
			}()
			testCross().NewStream(tc.cfg)
		}()
	}
}

func TestCrossNetForwardShape(t *testing.T) {
	c := testCross()
	x := make([]float32, 32)
	for i := range x {
		x[i] = float32(i) / 32
	}
	out, err := c.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 32 {
		t.Fatalf("output dim = %d", len(out))
	}
	for _, v := range out {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite output %g", v)
		}
	}
}

func TestCrossNetRejectsWrongDim(t *testing.T) {
	if _, err := testCross().Forward(make([]float32, 7)); err == nil {
		t.Fatal("accepted wrong input dim")
	}
}

func TestCrossNetDeterministicAndSeedSensitive(t *testing.T) {
	x := make([]float32, 32)
	x[0] = 1
	a, _ := testCross().Forward(x)
	b, _ := testCross().Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
	other := testCross()
	other.Seed = 6
	c, _ := other.Forward(x)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical networks")
	}
}

func TestCrossNetResidualProperty(t *testing.T) {
	// With a zero input, every layer's Hadamard term vanishes (x0 = 0),
	// so the output must be exactly zero — the residual path.
	c := testCross()
	out, err := c.Forward(make([]float32, 32))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero input produced nonzero output at %d: %g", i, v)
		}
	}
}

func TestCrossNetStreamAccounting(t *testing.T) {
	c := testCross()
	s := c.NewStream(StreamConfig{FlopsPerCycle: 32, Batch: 4})
	var op cpusim.Op
	var loads int64
	var compute float64
	for s.Next(&op) {
		switch op.Kind {
		case cpusim.OpLoad:
			loads++
		case cpusim.OpCompute:
			compute += op.Cost
		}
	}
	wantLines := (c.WeightBytes() + 63) / 64
	if loads != wantLines {
		t.Fatalf("weight lines = %d, want %d", loads, wantLines)
	}
	wantCycles := float64(c.FLOPs(4)) / 32
	if math.Abs(compute-wantCycles) > 1e-6*wantCycles {
		t.Fatalf("compute = %g, want %g", compute, wantCycles)
	}
}

func TestCrossInteractionImplementsInteractor(t *testing.T) {
	ci, err := NewCrossInteraction(16, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var _ Interactor = ci
	if ci.OutputDim() != 64 { // (3+1)*16
		t.Fatalf("output dim = %d", ci.OutputDim())
	}
	bottom := make([]float32, 16)
	emb := [][]float32{make([]float32, 16), make([]float32, 16), make([]float32, 16)}
	bottom[0] = 1
	out, err := ci.Forward(bottom, emb)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 64 {
		t.Fatalf("forward dim = %d", len(out))
	}
	if ci.FLOPs(2) <= 0 {
		t.Fatal("no FLOPs")
	}
}

func TestNewCrossInteractionRankCap(t *testing.T) {
	// Tiny concat width: rank must cap at half of it.
	ci, err := NewCrossInteraction(4, 1, 1) // concat dim 8
	if err != nil {
		t.Fatal(err)
	}
	if ci.Net.Rank > 4 {
		t.Fatalf("rank = %d not capped", ci.Net.Rank)
	}
	if _, err := NewCrossInteraction(0, 1, 1); err == nil {
		t.Fatal("accepted zero dim")
	}
}

func TestConcatInteraction(t *testing.T) {
	c := ConcatInteraction{Dim: 4, Tables: 2}
	var _ Interactor = c
	if c.OutputDim() != 12 {
		t.Fatalf("output dim = %d", c.OutputDim())
	}
	out, err := c.Forward([]float32{1, 2, 3, 4}, [][]float32{{5, 6, 7, 8}, {9, 10, 11, 12}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
		if out[i] != want {
			t.Fatalf("out[%d] = %g", i, out[i])
		}
	}
	if c.FLOPs(10) != 0 {
		t.Fatal("concat should be compute-free")
	}
	counts := cpusim.CountOps(c.NewStream(StreamConfig{FlopsPerCycle: 32, Batch: 2}))
	if counts[cpusim.OpLoad] == 0 {
		t.Fatal("concat stream should touch activation lines")
	}
	if _, err := c.Forward([]float32{1}, nil); err == nil {
		t.Fatal("accepted bad dims")
	}
}
