// Package trace synthesizes embedding-lookup input streams (offsets and
// indices arrays, exactly the shape PyTorch's embedding_bag consumes) whose
// statistics match the production traces the paper uses.
//
// The paper reduces Meta's published DLRM traces to three hotness classes
// with measured unique-access fractions — High 3%, Medium 24%, Low 60% —
// plus two synthetic extremes, one-item (all lookups hit one row) and
// random (uniform). This package generates index streams from a truncated
// power-law (Zipf) sampler at each class's fixed paper-scale reference
// exponent, which reproduces the class's unique fraction on 1M-row
// tables. That is the statistic every downstream analysis (reuse
// distance, cold misses, cache hit rates) actually depends on.
package trace

import (
	"errors"
	"fmt"
	"sort"

	"dlrmsim/internal/stats"
)

// Hotness classifies an input trace by how concentrated its row accesses
// are.
type Hotness int

// Hotness classes, ordered from most to least concentrated.
const (
	// OneItem is the paper's best-case synthetic input: every lookup in a
	// table goes to row 0.
	OneItem Hotness = iota
	// HighHot matches the "High Hot" production trace (~3% unique).
	HighHot
	// MediumHot matches the "Medium Hot" production trace (~24% unique).
	MediumHot
	// LowHot matches the "Low Hot" production trace (~60% unique).
	LowHot
	// RandomAccess is the worst-case synthetic input: uniform over rows.
	RandomAccess
)

// String returns the paper's name for the class.
func (h Hotness) String() string {
	switch h {
	case OneItem:
		return "one-item"
	case HighHot:
		return "High Hot"
	case MediumHot:
		return "Medium Hot"
	case LowHot:
		return "Low Hot"
	case RandomAccess:
		return "random"
	default:
		return "invalid"
	}
}

// TargetUniqueFraction returns the unique-access fraction the class is
// calibrated to (the paper's Section 5 measurements), or -1 for the
// synthetic extremes which are defined directly.
func (h Hotness) TargetUniqueFraction() float64 {
	switch h {
	case HighHot:
		return 0.03
	case MediumHot:
		return 0.24
	case LowHot:
		return 0.60
	default:
		return -1
	}
}

// ReferenceExponent returns the class's Zipf exponent calibrated at paper
// scale (1M-row tables, multi-million-access traces) so the generated
// stream reproduces the paper's unique-access fractions there. High and
// Medium were fit by bisection (3% and 24% unique over 2M draws); Low Hot
// is near-uniform, matching 60% unique when the trace length is of the
// order of the table height. Using fixed paper-scale exponents keeps the
// *shape* of the distribution intact when experiments scale tables down —
// calibrating the unique fraction on a short stream would instead collapse
// the hot working set into the L1, which never happens at real scale.
func (h Hotness) ReferenceExponent() float64 {
	switch h {
	case HighHot:
		return 1.326
	case MediumHot:
		return 0.893
	case LowHot:
		return 0.40
	default:
		return 0
	}
}

// Ranks is a hotness class's rank draw over one table height: rank 0 is
// the hottest row, and a table's RowPerm maps ranks to rows. It holds
// no generator, so one Ranks serves any number of streams.
type Ranks struct {
	h    Hotness
	rows int
	zipf *stats.Zipf // the shared sampler, for the hot classes only
}

// Ranks returns the class's rank draw over rows rows. The hot classes
// share one memoized sampler per (rows, exponent) (stats.NewSharedZipf).
func (h Hotness) Ranks(rows int) Ranks {
	r := Ranks{h: h, rows: rows}
	if s := h.ReferenceExponent(); s > 0 {
		r.zipf = stats.NewSharedZipf(rows, s)
	}
	return r
}

// Draw returns one rank in [0, rows) from rng: 0 without drawing for
// OneItem, uniform for RandomAccess, Zipf at the class's reference
// exponent otherwise.
func (r Ranks) Draw(rng *stats.RNG) int {
	switch r.h {
	case OneItem:
		return 0
	case RandomAccess:
		return rng.Intn(r.rows)
	default:
		return r.zipf.SampleWith(rng)
	}
}

// AllHotness lists the classes in the order the paper's figures use.
var AllHotness = []Hotness{OneItem, HighHot, MediumHot, LowHot, RandomAccess}

// ProductionHotness lists only the three production-trace classes.
var ProductionHotness = []Hotness{HighHot, MediumHot, LowHot}

// ParseHotness resolves a class from its CLI spelling: one-item (or
// oneitem), high, medium (or med), low, or random.
func ParseHotness(s string) (Hotness, error) {
	switch s {
	case "one-item", "oneitem":
		return OneItem, nil
	case "high":
		return HighHot, nil
	case "medium", "med":
		return MediumHot, nil
	case "low":
		return LowHot, nil
	case "random":
		return RandomAccess, nil
	}
	return 0, fmt.Errorf("trace: unknown hotness %q (want one-item | high | medium | low | random)", s)
}

// Config describes one synthetic trace.
type Config struct {
	// Hotness selects the access-concentration class.
	Hotness Hotness
	// Rows is the number of rows per embedding table.
	Rows int
	// Tables is the number of embedding tables.
	Tables int
	// BatchSize is the number of samples per batch.
	BatchSize int
	// LookupsPerSample is the (average) pooling factor: indices per
	// sample per table.
	LookupsPerSample int
	// Batches is the number of batches the trace covers.
	Batches int
	// Seed drives all generation; equal configs generate equal traces.
	Seed uint64
}

// Validate reports every reason the configuration is not generatable at
// once (errors.Join), naming each bad field.
func (c Config) Validate() error {
	var errs []error
	if c.Hotness < OneItem || c.Hotness > RandomAccess {
		errs = append(errs, fmt.Errorf("trace: unknown hotness class %d", int(c.Hotness)))
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Rows", c.Rows}, {"Tables", c.Tables}, {"BatchSize", c.BatchSize}, {"LookupsPerSample", c.LookupsPerSample}, {"Batches", c.Batches}} {
		if f.v < 1 {
			errs = append(errs, fmt.Errorf("trace: non-positive dimension %s %d", f.name, f.v))
		}
	}
	return errors.Join(errs...)
}

// TableBatch is the embedding_bag input for one (batch, table) pair:
// sample i pools indices Indices[Offsets[i]:Offsets[i+1]].
type TableBatch struct {
	Offsets []int32
	Indices []int32
}

// Lookups returns the total number of index lookups in the batch.
func (tb TableBatch) Lookups() int { return len(tb.Indices) }

// Dataset generates deterministic TableBatches for a Config. Construct
// with NewDataset; generation is cheap and stateless per (batch, table),
// so multi-core simulations can generate work lazily and identically on
// every bandwidth-fixed-point replay.
type Dataset struct {
	cfg   Config
	ranks Ranks
}

// NewDataset returns a Dataset. The returned error only reflects invalid
// configuration.
func NewDataset(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Dataset{cfg: cfg, ranks: cfg.Hotness.Ranks(cfg.Rows)}, nil
}

// Config returns the dataset's configuration.
func (d *Dataset) Config() Config { return d.cfg }

// RowPerm is one table's rank→row affine bijection, row = (rank·mult +
// add) mod rows. Each table gets its own from (seed, table), so each has
// its own set of hot rows (the paper notes hotness varies across tables
// within a dataset). The cluster tier replicates rows through the same
// map, so the rows it treats as hot are the rows the trace makes hot.
type RowPerm struct{ mult, add, rows uint64 }

// NewRowPerm returns table's bijection over rows rows under seed.
func NewRowPerm(seed uint64, table, rows int) RowPerm {
	n := uint64(rows)
	h := stats.Mix64(seed ^ uint64(table)*0x9E37)
	mult := h%n | 1 // odd-ish start
	for gcd(mult, n) != 1 {
		mult += 2
		if mult >= n {
			mult = 1
		}
	}
	return RowPerm{mult: mult, add: stats.Mix64(h) % n, rows: n}
}

// Row maps a Zipf rank (0-based, hottest first) to its row id.
func (p RowPerm) Row(rank int) int32 {
	return int32((uint64(rank)*p.mult + p.add) % p.rows)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Batch generates the embedding_bag input for (batchIdx, tableIdx).
func (d *Dataset) Batch(batchIdx, tableIdx int) TableBatch {
	c := d.cfg
	rng := stats.NewRNG(stats.Mix64(c.Seed ^ uint64(batchIdx)<<20 ^ uint64(tableIdx)))
	n := c.BatchSize * c.LookupsPerSample
	tb := TableBatch{
		Offsets: make([]int32, c.BatchSize+1),
		Indices: make([]int32, 0, n),
	}
	perm := NewRowPerm(c.Seed, tableIdx, c.Rows)
	// Only the hot classes permute: a one-item table hits row 0, and a
	// uniform rank is already a uniform row.
	permute := d.ranks.zipf != nil
	for s := 0; s < c.BatchSize; s++ {
		tb.Offsets[s] = int32(len(tb.Indices))
		for l := 0; l < c.LookupsPerSample; l++ {
			row := int32(d.ranks.Draw(rng))
			if permute {
				row = perm.Row(int(row))
			}
			tb.Indices = append(tb.Indices, row)
		}
	}
	tb.Offsets[c.BatchSize] = int32(len(tb.Indices))
	return tb
}

// AccessCounts returns per-row access counts for one table across the
// whole trace, sorted descending — the paper's Fig. 5 histogram. Their
// number over their sum is the table's unique-access fraction, the
// statistic the paper characterizes datasets by.
func (d *Dataset) AccessCounts(tableIdx int) []int {
	counts := make(map[int32]int)
	for b := 0; b < d.cfg.Batches; b++ {
		tb := d.Batch(b, tableIdx)
		for _, ix := range tb.Indices {
			counts[ix]++
		}
	}
	out := make([]int, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
