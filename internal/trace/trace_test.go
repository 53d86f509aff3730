package trace

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"dlrmsim/internal/stats"
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

// uniqueFraction is table's distinct rows over its accesses.
func uniqueFraction(d *Dataset, table int) float64 {
	c := d.Config()
	return float64(len(d.AccessCounts(table))) / float64(c.Batches*c.BatchSize*c.LookupsPerSample)
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
	// An unknown class would reach the Zipf sampler with s = 0 and panic
	// in NewDataset.
	for _, h := range []Hotness{OneItem - 1, RandomAccess + 1} {
		bad = good
		bad.Hotness = h
		if bad.Validate() == nil {
			t.Errorf("accepted hotness %d", int(h))
		}
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
	if u := uniqueFraction(d, 0); u < 0.8 {
		t.Fatalf("random unique fraction = %.3f", u)
	}
}

func TestHotnessCalibration(t *testing.T) {
	// The reference exponents must reproduce the paper's unique-access
	// fractions where they were fit: 1M-row tables, 2M draws for High
	// and Medium, and as many draws as rows for the near-uniform Low.
	const rows = 1_000_000
	for _, tc := range []struct {
		h     Hotness
		draws int
		tol   float64
	}{{HighHot, 2 * rows, 0.005}, {MediumHot, 2 * rows, 0.005}, {LowHot, rows, 0.02}} {
		ranks, rng := tc.h.Ranks(rows), stats.NewRNG(1)
		seen, unique := make([]bool, rows), 0
		for i := 0; i < tc.draws; i++ {
			if k := ranks.Draw(rng); !seen[k] {
				seen[k] = true
				unique++
			}
		}
		got, want := float64(unique)/float64(tc.draws), tc.h.TargetUniqueFraction()
		if math.Abs(got-want) > tc.tol {
			t.Errorf("%v: unique fraction %.4f over %d draws, want %.2f ± %.3f", tc.h, got, tc.draws, want, tc.tol)
		}
	}
}

func TestReferenceExponents(t *testing.T) {
	// Fixed paper-scale exponents must be ordered (hotter = steeper);
	// TestHotnessCalibration checks the fractions they reproduce.
	sH, sM, sL := HighHot.ReferenceExponent(), MediumHot.ReferenceExponent(), LowHot.ReferenceExponent()
	if !(sH > sM && sM > sL && sL > 0) {
		t.Fatalf("exponents not ordered: %g %g %g", sH, sM, sL)
	}
	if OneItem.ReferenceExponent() != 0 || RandomAccess.ReferenceExponent() != 0 {
		t.Fatal("synthetic extremes should have no exponent")
	}
}

func TestHotnessOrdering(t *testing.T) {
	uh := uniqueFraction(mustDataset(t, smallConfig(HighHot)), 1)
	um := uniqueFraction(mustDataset(t, smallConfig(MediumHot)), 1)
	ul := uniqueFraction(mustDataset(t, smallConfig(LowHot)), 1)
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
	for _, rows := range []int{1, 2, 101, 128, 1000} {
		for table := 0; table < 4; table++ {
			p := NewRowPerm(9, table, rows)
			seen := make([]bool, rows)
			for r := 0; r < rows; r++ {
				v := p.Row(r)
				if v < 0 || int(v) >= rows || seen[v] {
					t.Fatalf("rows %d table %d: row permutation collides or escapes at rank %d (row %d)", rows, table, r, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestConfigValidateNamesEachField(t *testing.T) {
	for _, tc := range []struct {
		field string
		mut   func(*Config)
	}{
		{"Rows", func(c *Config) { c.Rows = 0 }},
		{"Tables", func(c *Config) { c.Tables = -1 }},
		{"BatchSize", func(c *Config) { c.BatchSize = 0 }},
		{"LookupsPerSample", func(c *Config) { c.LookupsPerSample = 0 }},
		{"Batches", func(c *Config) { c.Batches = 0 }},
		{"hotness", func(c *Config) { c.Hotness = RandomAccess + 1 }},
	} {
		cfg := smallConfig(HighHot)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) || strings.Contains(err.Error(), "{") {
			t.Errorf("%s: Validate() = %v, want an error naming the field and no struct dump", tc.field, err)
		}
	}
	// Every bad field is reported at once.
	cfg := smallConfig(HighHot)
	cfg.Rows, cfg.Batches = 0, 0
	var joined interface{ Unwrap() []error }
	if err := cfg.Validate(); !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
		t.Errorf("two bad fields: Validate() = %v, want both joined", err)
	}
}

// TestBatchConcurrentMatchesSequential: engine cells call Batch from
// many goroutines, and the hot classes read one memoized sampler per
// (rows, exponent). Goroutines that race through overlapping (batch,
// table) pairs on fresh Datasets, building the samplers of a table
// height no other test uses, must draw what one sequential pass draws.
func TestBatchConcurrentMatchesSequential(t *testing.T) {
	const workers, rows = 4, 77_777
	cfgs := make([]Config, len(AllHotness))
	for i, h := range AllHotness {
		cfgs[i] = smallConfig(h)
		cfgs[i].Rows, cfgs[i].Tables, cfgs[i].Batches = rows, 2, 3
	}
	pairs := cfgs[0].Tables * cfgs[0].Batches
	got := make([][][]TableBatch, workers) // [worker][config][pair]
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[w] = make([][]TableBatch, len(cfgs))
			for c, cfg := range cfgs {
				d, err := NewDataset(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got[w][c] = make([]TableBatch, pairs)
				// Each worker starts at its own pair, so the workers
				// overlap on every pair in a different order.
				for i := range pairs {
					p := (i + w) % pairs
					got[w][c][p] = d.Batch(p/cfg.Tables, p%cfg.Tables)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for c, cfg := range cfgs {
		d := mustDataset(t, cfg)
		for p := range pairs {
			want := d.Batch(p/cfg.Tables, p%cfg.Tables)
			for w := range got {
				if tb := got[w][c][p]; !slices.Equal(tb.Indices, want.Indices) || !slices.Equal(tb.Offsets, want.Offsets) {
					t.Fatalf("%v: worker %d batch %d table %d differs from the sequential pass", cfg.Hotness, w, p/cfg.Tables, p%cfg.Tables)
				}
			}
		}
	}
}
