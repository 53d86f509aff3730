package reuse

import (
	"strings"
	"testing"

	"dlrmsim/internal/memsim"
	"dlrmsim/internal/trace"
)

func modelDataset(t *testing.T, h trace.Hotness) *trace.Dataset {
	t.Helper()
	d, err := trace.NewDataset(trace.Config{
		Hotness: h, Rows: 20_000, Tables: 4, BatchSize: 16,
		LookupsPerSample: 20, Batches: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func modelConfig(cores int) ModelConfig {
	return ModelConfig{
		EmbeddingDim: 128,
		Cores:        cores,
		Caches: []memsim.CacheConfig{
			{Name: "L1D", SizeBytes: 32 << 10},
			{Name: "L2", SizeBytes: 1 << 20},
			{Name: "L3", SizeBytes: 35 << 20},
		},
	}
}

func TestModelRunBasics(t *testing.T) {
	res, err := Run(modelDataset(t, trace.MediumHot), modelConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(16 * 20 * 4 * 8) // samples × lookups × tables × batches
	if res.Accesses != want {
		t.Fatalf("accesses = %d, want %d", res.Accesses, want)
	}
	// Capacity conversion: 32 KiB / 512 B per vector = 64 vectors.
	if res.VectorCapacity["L1D"] != 64 {
		t.Fatalf("L1D vector capacity = %d", res.VectorCapacity["L1D"])
	}
	if res.ColdMissFraction <= 0 || res.ColdMissFraction >= 1 {
		t.Fatalf("cold fraction = %g", res.ColdMissFraction)
	}
}

func TestModelHitRatesMonotoneInCapacity(t *testing.T) {
	for _, h := range trace.ProductionHotness {
		res, err := Run(modelDataset(t, h), modelConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		l1, l2, l3 := res.HitRates["L1D"], res.HitRates["L2"], res.HitRates["L3"]
		if !(l1 <= l2 && l2 <= l3) {
			t.Fatalf("%v: hit rates not monotone: %.3f %.3f %.3f", h, l1, l2, l3)
		}
	}
}

func TestModelHotterMeansFewerColdMisses(t *testing.T) {
	hi, err := Run(modelDataset(t, trace.HighHot), modelConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Run(modelDataset(t, trace.LowHot), modelConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if hi.ColdMissFraction >= lo.ColdMissFraction {
		t.Fatalf("cold misses: high=%.3f low=%.3f", hi.ColdMissFraction, lo.ColdMissFraction)
	}
	if hi.HitRates["L3"] <= lo.HitRates["L3"] {
		t.Fatalf("L3 hit rate: high=%.3f low=%.3f", hi.HitRates["L3"], lo.HitRates["L3"])
	}
}

func TestModelL1HitRateIsPoor(t *testing.T) {
	// The paper's key observation: L1D capacity (64 vectors) captures
	// almost none of the reuse in production-like traces.
	res, err := Run(modelDataset(t, trace.LowHot), modelConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRates["L1D"] > 0.35 {
		t.Fatalf("L1D hit rate = %.3f, expected poor locality", res.HitRates["L1D"])
	}
}

func TestModelOneItemIsPerfect(t *testing.T) {
	res, err := Run(modelDataset(t, trace.OneItem), modelConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// One row per table: everything after the first touch hits even L1.
	if res.HitRates["L1D"] < 0.95 {
		t.Fatalf("one-item L1D hit rate = %.3f", res.HitRates["L1D"])
	}
}

func TestModelRejectsBadConfig(t *testing.T) {
	d := modelDataset(t, trace.LowHot)
	for _, tc := range []struct {
		field      string
		dim, cores int
	}{{"EmbeddingDim", 0, 1}, {"Cores", 64, 0}} {
		_, err := Run(d, ModelConfig{EmbeddingDim: tc.dim, Cores: tc.cores})
		if err == nil || !strings.Contains(err.Error(), tc.field) || strings.Contains(err.Error(), "{") {
			t.Errorf("%s: Run error %v, want one naming the field and no struct dump", tc.field, err)
		}
	}
}

func TestModelCoreCountChangesInterleaving(t *testing.T) {
	d := modelDataset(t, trace.MediumHot)
	one, err := Run(d, modelConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(d, modelConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if one.Accesses != many.Accesses {
		t.Fatalf("access counts differ: %d vs %d", one.Accesses, many.Accesses)
	}
	// Interleaving 8 independent batch streams stretches reuse distances
	// (destructive sharing), so small-capacity hit rates cannot improve
	// much; allow a tiny tolerance for constructive sharing.
	if many.HitRates["L1D"] > one.HitRates["L1D"]+0.05 {
		t.Fatalf("L1 hit rate improved under interleaving: %.3f vs %.3f",
			many.HitRates["L1D"], one.HitRates["L1D"])
	}
}
