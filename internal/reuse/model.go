package reuse

import (
	"errors"
	"fmt"

	"dlrmsim/internal/memsim"
	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
)

// ModelConfig drives the paper's Fig. 6 pipeline: an index-access trace is
// generated from the dataset per Algorithm 1's loop order, stack distances
// are computed, and cache capacities (converted to "embedding vectors the
// cache can hold", assuming full associativity and fp32 rows) are marked
// as hit rates.
type ModelConfig struct {
	// EmbeddingDim converts byte capacities to vector capacities:
	// a cache of B bytes holds B / (4*EmbeddingDim) vectors.
	EmbeddingDim int
	// Cores is the number of cores concurrently running batches. Each
	// batch is mapped to one core (the paper's execution model); the
	// interleaved trace models their shared-LLC interaction.
	Cores int
	// Caches lists the caches whose capacities to mark, e.g. a
	// platform's L1/L2/L3; results are keyed by each cache's Name.
	Caches []memsim.CacheConfig
}

// ModelResult is the paper's reuse-distance characterization for one
// dataset.
type ModelResult struct {
	// Hist is the distance histogram (vector-granularity, interleaved
	// across cores).
	Hist *stats.Histogram
	// HitRates holds, per configured cache, the hit rate a
	// fully-associative cache of that capacity would achieve.
	HitRates map[string]float64
	// VectorCapacity maps cache name to its capacity in vectors.
	VectorCapacity map[string]int64
	// ColdMissFraction is the fraction of accesses that are first
	// touches (the paper's yellow cold-miss marker).
	ColdMissFraction float64
	// Accesses is the trace length analyzed.
	Accesses uint64
	// MeanDistance is the mean finite stack distance.
	MeanDistance float64
}

// Run generates the index-access trace for d (see walk for the order)
// and returns the reuse-distance characterization. The access key is
// (table, row): one embedding vector, matching the paper's
// vector-granularity model.
func Run(d *trace.Dataset, cfg ModelConfig) (*ModelResult, error) {
	var errs []error
	if cfg.EmbeddingDim < 1 {
		errs = append(errs, fmt.Errorf("reuse: EmbeddingDim %d (want >= 1)", cfg.EmbeddingDim))
	}
	if cfg.Cores < 1 {
		errs = append(errs, fmt.Errorf("reuse: Cores %d (want >= 1)", cfg.Cores))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	tc := d.Config()
	vectorBytes := int64(4 * cfg.EmbeddingDim)
	capsVec := make([]int64, len(cfg.Caches))
	for i, c := range cfg.Caches {
		capsVec[i] = c.SizeBytes / vectorBytes
	}
	an := NewAnalyzer(tc.BatchSize * tc.LookupsPerSample * tc.Tables)
	tracker := NewCapacityTracker(capsVec)
	walk(d, cfg.Cores, func(_, _ int, key uint64) {
		tracker.Record(an.Access(key))
	})

	res := &ModelResult{
		Hist:             an.Histogram(),
		HitRates:         make(map[string]float64, len(cfg.Caches)),
		VectorCapacity:   make(map[string]int64, len(cfg.Caches)),
		ColdMissFraction: tracker.ColdFraction(),
		Accesses:         tracker.Total(),
		MeanDistance:     an.Histogram().Mean(),
	}
	for i, c := range cfg.Caches {
		res.HitRates[c.Name] = tracker.HitRate(i)
		res.VectorCapacity[c.Name] = capsVec[i]
	}
	return res, nil
}

// walk replays d's index-access trace and hands visit every access's
// core, absolute batch and (table, row) key. Batch b runs on core
// b%cores, so core c runs batches c, c+cores, c+2*cores, ...; within a
// batch the loop order is table → sample → lookup (Algorithm 1); and
// the cores' streams interleave round-robin, one access each per round.
func walk(d *trace.Dataset, cores int, visit func(core, batch int, key uint64)) {
	tc := d.Config()
	type cursor struct {
		core, batch, table int
		pos                int     // next lookup in indices
		indices            []int32 // the (batch, table) pass's lookups
	}
	live := make([]cursor, 0, min(cores, tc.Batches))
	for c := 0; c < cores && c < tc.Batches; c++ {
		live = append(live, cursor{core: c, batch: c, indices: d.Batch(c, 0).Indices})
	}
	for len(live) > 0 {
		// Finished cores drop out in place; the rest keep their order.
		n := 0
		for _, cur := range live {
			visit(cur.core, cur.batch, uint64(cur.table)<<32|uint64(uint32(cur.indices[cur.pos])))
			if cur.pos++; cur.pos == len(cur.indices) {
				cur.pos = 0
				if cur.table++; cur.table == tc.Tables {
					cur.table = 0
					if cur.batch += cores; cur.batch >= tc.Batches {
						continue
					}
				}
				cur.indices = d.Batch(cur.batch, cur.table).Indices
			}
			live[n] = cur
			n++
		}
		live = live[:n]
	}
}
