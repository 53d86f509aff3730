package serve

import (
	"math"
	"testing"
)

func batchCfg() BatchingConfig {
	return BatchingConfig{
		Cores:             4,
		MeanArrivalMs:     0.2,
		MaxBatch:          32,
		MaxWaitMs:         5,
		ServiceBaseMs:     1,
		ServicePerQueryMs: 0.1,
		Queries:           10000,
		Seed:              3,
	}
}

func TestBatchingBasics(t *testing.T) {
	res, err := SimulateBatching(batchCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches == 0 || res.MeanBatchSize <= 0 {
		t.Fatalf("no batches formed: %+v", res)
	}
	if res.MeanBatchSize > 32 {
		t.Fatalf("mean batch %g exceeds MaxBatch", res.MeanBatchSize)
	}
	if !(res.P50 <= res.P95 && res.P95 <= res.P99) {
		t.Fatalf("percentiles out of order: %+v", res)
	}
	if res.ThroughputQPS <= 0 {
		t.Fatal("no throughput")
	}
}

func TestBatchingLightLoadFlushesOnTimeout(t *testing.T) {
	cfg := batchCfg()
	cfg.MeanArrivalMs = 20 // sparse arrivals: batches of ~1, flushed by timeout
	res, err := SimulateBatching(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanBatchSize > 2 {
		t.Fatalf("light load formed batches of %g", res.MeanBatchSize)
	}
	// Latency ≈ wait (up to MaxWaitMs) + service of a small batch.
	if res.P95 > cfg.MaxWaitMs+cfg.ServiceBaseMs+2*cfg.ServicePerQueryMs+1 {
		t.Fatalf("light-load p95 = %g", res.P95)
	}
}

func TestBatchingHeavyLoadFillsBatches(t *testing.T) {
	cfg := batchCfg()
	cfg.MeanArrivalMs = 0.01 // dense arrivals: batches fill to MaxBatch
	res, err := SimulateBatching(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanBatchSize < float64(cfg.MaxBatch)*0.9 {
		t.Fatalf("heavy load mean batch = %g, want ~%d", res.MeanBatchSize, cfg.MaxBatch)
	}
}

func TestBatchingLargerBatchesRaiseThroughput(t *testing.T) {
	// Under overload, a larger MaxBatch amortizes ServiceBaseMs and
	// serves more QPS.
	small, big := batchCfg(), batchCfg()
	small.MeanArrivalMs, big.MeanArrivalMs = 0.02, 0.02
	small.MaxBatch, big.MaxBatch = 4, 64
	rs, err := SimulateBatching(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := SimulateBatching(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.ThroughputQPS <= rs.ThroughputQPS {
		t.Fatalf("batch 64 QPS %.0f <= batch 4 QPS %.0f", rb.ThroughputQPS, rs.ThroughputQPS)
	}
}

func TestBatchingDeterministic(t *testing.T) {
	a, err := SimulateBatching(batchCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateBatching(batchCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.P95 != b.P95 || a.Batches != b.Batches {
		t.Fatal("not deterministic")
	}
}

func TestBatchingValidation(t *testing.T) {
	bad := batchCfg()
	bad.Cores = 0
	if _, err := SimulateBatching(bad); err == nil {
		t.Fatal("accepted zero cores")
	}
	bad = batchCfg()
	bad.ServicePerQueryMs = 0
	if _, err := SimulateBatching(bad); err == nil {
		t.Fatal("accepted zero per-query service")
	}
	bad = batchCfg()
	bad.MaxWaitMs = 0
	if _, err := SimulateBatching(bad); err == nil {
		t.Fatal("accepted zero wait")
	}
	bad = batchCfg()
	bad.Queries = -1
	if _, err := SimulateBatching(bad); err == nil {
		t.Fatal("accepted a negative query count")
	}
}

// TestBatchingRejectsNonFinite puts NaN and +Inf into each float field:
// every one must be rejected up front instead of yielding NaN or +Inf
// percentiles.
func TestBatchingRejectsNonFinite(t *testing.T) {
	fields := map[string]func(c *BatchingConfig) *float64{
		"MeanArrivalMs":     func(c *BatchingConfig) *float64 { return &c.MeanArrivalMs },
		"MaxWaitMs":         func(c *BatchingConfig) *float64 { return &c.MaxWaitMs },
		"ServiceBaseMs":     func(c *BatchingConfig) *float64 { return &c.ServiceBaseMs },
		"ServicePerQueryMs": func(c *BatchingConfig) *float64 { return &c.ServicePerQueryMs },
	}
	for name, field := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			cfg := batchCfg()
			*field(&cfg) = v
			if res, err := SimulateBatching(cfg); err == nil {
				t.Errorf("%s = %g accepted: %+v", name, v, res)
			}
		}
	}
}

func TestBestBatchSizeRespectsSLA(t *testing.T) {
	cfg := batchCfg()
	cfg.MeanArrivalMs = 0.05
	candidates := []int{4, 16, 64, 256}
	// Tight SLA: giant batches must be rejected (their service time alone
	// blows the budget).
	best, points, ok := BestBatchSize(cfg, candidates, 12)
	if !ok {
		t.Fatalf("no compliant batch size; points=%v", points)
	}
	if points[best].P95 > 12 {
		t.Fatalf("chosen batch %d violates SLA: %+v", best, points[best])
	}
	if best == 256 {
		t.Fatal("SLA should have excluded the largest batch")
	}
	// A loose SLA admits larger batches with throughput ≥ the tight pick.
	bestLoose, pointsLoose, ok := BestBatchSize(cfg, candidates, 1e6)
	if !ok {
		t.Fatal("loose SLA found nothing")
	}
	if pointsLoose[bestLoose].ThroughputQPS < points[best].ThroughputQPS {
		t.Fatal("loose SLA picked lower throughput")
	}
}
