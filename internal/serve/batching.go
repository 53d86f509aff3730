package serve

import "dlrmsim/internal/stats"

// BatchingConfig describes query-level serving with dynamic batch
// formation: individual queries arrive Poisson; the batcher flushes a
// batch when it reaches MaxBatch queries or when the oldest enqueued
// query has waited MaxWaitMs. This is the serving layer the paper's
// batch-size choice lives in (Table 1: batch 64 "to maximize throughput
// while meeting the SLA").
type BatchingConfig struct {
	// Cores is the number of servers.
	Cores int
	// MeanArrivalMs is the mean inter-arrival time of single queries.
	MeanArrivalMs float64
	// MaxBatch flushes a batch at this size.
	MaxBatch int
	// MaxWaitMs flushes a batch when its oldest query has waited this
	// long (bounds batching delay under light load).
	MaxWaitMs float64
	// ServiceBaseMs + ServicePerQueryMs×size is a batch's service time —
	// the affine model the timing simulator's batch-size sweep (ext2)
	// justifies.
	ServiceBaseMs     float64
	ServicePerQueryMs float64
	// Queries is the number of queries to simulate (default 20000).
	Queries int
	// Seed drives arrivals.
	Seed uint64
}

func (c *BatchingConfig) applyDefaults() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Queries == 0 {
		c.Queries = 20000
	}
	return nil
}

// BatchingResult reports query-level latency percentiles and batching
// behavior.
type BatchingResult struct {
	// P50, P95, P99, Mean are end-to-end query latencies in ms
	// (batching wait + queueing + service).
	P50, P95, P99, Mean float64
	// MeanBatchSize is the average formed batch size.
	MeanBatchSize float64
	// Batches is the number of batches dispatched.
	Batches int
	// ThroughputQPS is queries served per second of simulated time.
	ThroughputQPS float64
}

// SimulateBatching runs the query-level serving simulation.
func SimulateBatching(cfg BatchingConfig) (BatchingResult, error) {
	if err := cfg.applyDefaults(); err != nil {
		return BatchingResult{}, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0xBA7C4)
	// Query arrival times.
	arrivals := make([]float64, cfg.Queries)
	now := 0.0
	for i := range arrivals {
		now += rng.ExpFloat64() * cfg.MeanArrivalMs
		arrivals[i] = now
	}
	q := NewQueue(cfg.Cores)
	latencies := make([]float64, 0, cfg.Queries)
	var batchStart int // index of the first query in the forming batch
	var totalBatch, nBatches int
	var lastFinish float64

	// A flushed batch is one FCFS request on the earliest-free core.
	flush := func(members []float64, flushAt float64) {
		_, done := q.Submit(flushAt, cfg.ServiceBaseMs+cfg.ServicePerQueryMs*float64(len(members)))
		if done > lastFinish {
			lastFinish = done
		}
		for _, arr := range members {
			latencies = append(latencies, done-arr)
		}
		totalBatch += len(members)
		nBatches++
	}

	for i := 0; i < cfg.Queries; i++ {
		// The batch currently forming spans [batchStart, i]. Flush if
		// the deadline of its oldest member passes before query i+1
		// arrives, or if it is full.
		deadline := arrivals[batchStart] + cfg.MaxWaitMs
		size := i - batchStart + 1
		switch {
		case size >= cfg.MaxBatch:
			flush(arrivals[batchStart:i+1], arrivals[i])
			batchStart = i + 1
		case i+1 >= cfg.Queries || arrivals[i+1] > deadline:
			flush(arrivals[batchStart:i+1], deadline)
			batchStart = i + 1
		}
	}
	pct := stats.Percentiles(latencies, 0.50, 0.95, 0.99)
	res := BatchingResult{
		P50:     pct[0],
		P95:     pct[1],
		P99:     pct[2],
		Mean:    stats.Mean(latencies),
		Batches: nBatches,
	}
	if nBatches > 0 {
		res.MeanBatchSize = float64(totalBatch) / float64(nBatches)
	}
	if lastFinish > 0 {
		res.ThroughputQPS = float64(len(latencies)) / (lastFinish / 1e3)
	}
	return res, nil
}

// BestBatchSize sweeps MaxBatch over candidates and returns the size with
// the highest throughput whose p95 meets the SLA, plus every evaluated
// point. ok is false when nothing complies.
func BestBatchSize(cfg BatchingConfig, candidates []int, slaMs float64) (best int, points map[int]BatchingResult, ok bool) {
	points = make(map[int]BatchingResult, len(candidates))
	bestQPS := -1.0
	for _, b := range candidates {
		c := cfg
		c.MaxBatch = b
		res, err := SimulateBatching(c)
		if err != nil {
			continue
		}
		points[b] = res
		if res.P95 <= slaMs && res.ThroughputQPS > bestQPS {
			best, bestQPS, ok = b, res.ThroughputQPS, true
		}
	}
	return best, points, ok
}
