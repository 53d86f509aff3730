package reuse

import (
	"testing"

	"dlrmsim/internal/memsim"
	"dlrmsim/internal/trace"
)

func classifyDataset(t *testing.T, h trace.Hotness, batches int) *trace.Dataset {
	t.Helper()
	d, err := trace.NewDataset(trace.Config{
		Hotness: h, Rows: 5_000, Tables: 3, BatchSize: 8,
		LookupsPerSample: 16, Batches: batches, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDecomposeCountsEveryAccess(t *testing.T) {
	d := classifyDataset(t, trace.MediumHot, 4)
	dec, err := Decompose(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(8 * 16 * 3 * 4)
	if dec.Accesses != want {
		t.Fatalf("accesses = %d, want %d", dec.Accesses, want)
	}
	var sum uint64
	var fracs float64
	for c := ColdAccess; c < numReuseClasses; c++ {
		sum += dec.Classes[c].Count
		fracs += dec.Fraction(c)
	}
	if sum != want {
		t.Fatalf("class counts sum to %d", sum)
	}
	if fracs < 0.999 || fracs > 1.001 {
		t.Fatalf("fractions sum to %g", fracs)
	}
}

func TestDecomposeSingleCoreHasNoInterCore(t *testing.T) {
	d := classifyDataset(t, trace.HighHot, 4)
	dec, err := Decompose(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Classes[InterCore].Count != 0 {
		t.Fatalf("single-core run classified %d inter-core reuses", dec.Classes[InterCore].Count)
	}
	// A hot trace across 4 batches must show both intra-table and
	// inter-batch reuse.
	if dec.Classes[IntraTable].Count == 0 {
		t.Fatal("no intra-table reuse in a hot trace")
	}
	if dec.Classes[InterBatch].Count == 0 {
		t.Fatal("no inter-batch reuse across 4 batches")
	}
}

func TestDecomposeSingleBatchHasNoInterBatch(t *testing.T) {
	d := classifyDataset(t, trace.HighHot, 1)
	dec, err := Decompose(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Classes[InterBatch].Count != 0 {
		t.Fatalf("one-batch run classified %d inter-batch reuses", dec.Classes[InterBatch].Count)
	}
}

func TestDecomposeMultiCoreFindsConstructiveSharing(t *testing.T) {
	d := classifyDataset(t, trace.HighHot, 4)
	dec, err := Decompose(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Four cores over the same hot tables: some reuse must cross cores.
	if dec.Classes[InterCore].Count == 0 {
		t.Fatal("no inter-core reuse despite shared hot rows")
	}
}

// TestInterBatchDistancesAreLarge reproduces the paper's "thick red
// arrow": reuse across batches of the same table has far larger stack
// distances than reuse within a single embedding_bag pass, because
// (almost) all other tables' accesses intervene.
func TestInterBatchDistancesAreLarge(t *testing.T) {
	d := classifyDataset(t, trace.HighHot, 4)
	dec, err := Decompose(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	intra := dec.Classes[IntraTable].MeanDistance()
	inter := dec.Classes[InterBatch].MeanDistance()
	if inter <= intra {
		t.Fatalf("inter-batch mean distance %.0f <= intra-table %.0f", inter, intra)
	}
	if inter < 10*intra {
		t.Fatalf("inter-batch distances (%.0f) should dwarf intra-table (%.0f)", inter, intra)
	}
}

// TestDecomposeColdFractionMatchesAnalyzer: Run and Decompose replay one trace walk, so
// both see every access — Batches·Tables·BatchSize·LookupsPerSample of
// them, whatever the core count — and the decomposition's cold class
// must agree with the plain analyzer's cold-miss accounting. The rows
// cover more cores than batches, batch counts that cores do not
// divide, and a single table.
func TestDecomposeColdFractionMatchesAnalyzer(t *testing.T) {
	for _, tc := range []struct{ cores, batches, tables int }{
		{2, 2, 3}, {1, 4, 3}, {4, 2, 3}, {3, 7, 3}, {5, 3, 1}, {2, 5, 1},
	} {
		d, err := trace.NewDataset(trace.Config{
			Hotness: trace.MediumHot, Rows: 5_000, Tables: tc.tables, BatchSize: 8,
			LookupsPerSample: 16, Batches: tc.batches, Seed: 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decompose(d, tc.cores)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(d, ModelConfig{
			EmbeddingDim: 64, Cores: tc.cores,
			Caches: []memsim.CacheConfig{{Name: "L1D", SizeBytes: 32 << 10}},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(tc.batches * tc.tables * 8 * 16)
		if res.Accesses != want || dec.Accesses != want {
			t.Errorf("%+v: Run saw %d accesses, Decompose %d, want %d", tc, res.Accesses, dec.Accesses, want)
		}
		if got, want := dec.Fraction(ColdAccess), res.ColdMissFraction; got != want {
			t.Errorf("%+v: cold fraction %g != model's %g", tc, got, want)
		}
	}
}

func TestDecomposeRejectsBadCores(t *testing.T) {
	d := classifyDataset(t, trace.LowHot, 1)
	if _, err := Decompose(d, 0); err == nil {
		t.Fatal("accepted zero cores")
	}
}

func TestReuseClassStrings(t *testing.T) {
	for c := ColdAccess; c < numReuseClasses; c++ {
		if c.String() == "invalid" {
			t.Fatalf("class %d unnamed", c)
		}
	}
	if ReuseClass(99).String() != "invalid" {
		t.Fatal("out-of-range class not flagged")
	}
}
