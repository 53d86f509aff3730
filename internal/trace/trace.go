// Package trace synthesizes embedding-lookup input streams (offsets and
// indices arrays, exactly the shape PyTorch's embedding_bag consumes) whose
// statistics match the production traces the paper uses.
//
// The paper reduces Meta's published DLRM traces to three hotness classes
// with measured unique-access fractions — High 3%, Medium 24%, Low 60% —
// plus two synthetic extremes, one-item (all lookups hit one row) and
// random (uniform). This package generates index streams from a truncated
// power-law (Zipf) sampler whose exponent is calibrated, per configuration,
// so the generated stream reproduces the target unique fraction. That is
// the statistic every downstream analysis (reuse distance, cold misses,
// cache hit rates) actually depends on.
package trace

import (
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
	// Batches is the number of batches the trace covers; the Zipf
	// exponent is calibrated against the whole stream length.
	Batches int
	// Seed drives all generation; equal configs generate equal traces.
	Seed uint64
	// CalibrateUnique fits the Zipf exponent so that THIS trace's unique
	// fraction matches the class target, instead of using the
	// paper-scale reference exponent. Only meaningful when the trace is
	// itself at production scale; see Hotness.ReferenceExponent.
	CalibrateUnique bool
}

// Validate reports whether the configuration is generatable.
func (c Config) Validate() error {
	if c.Rows < 1 || c.Tables < 1 || c.BatchSize < 1 || c.LookupsPerSample < 1 || c.Batches < 1 {
		return fmt.Errorf("trace: non-positive dimension in %+v", c)
	}
	return nil
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
	cfg      Config
	exponent float64 // calibrated Zipf exponent (hot classes only)
}

// calibrationCap bounds the stream length used during exponent
// calibration; unique fractions are estimated on a prefix for very long
// traces to keep NewDataset fast.
const calibrationCap = 200_000

// NewDataset calibrates (if needed) and returns a Dataset. The returned
// error only reflects invalid configuration.
func NewDataset(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Dataset{cfg: cfg, exponent: cfg.Hotness.ReferenceExponent()}
	if target := cfg.Hotness.TargetUniqueFraction(); target > 0 && cfg.CalibrateUnique {
		draws := cfg.BatchSize * cfg.LookupsPerSample * cfg.Batches
		if draws > calibrationCap {
			draws = calibrationCap
		}
		d.exponent = stats.CalibrateZipfExponent(cfg.Seed^0xCA11B, cfg.Rows, draws, target)
	}
	return d, nil
}

// Config returns the dataset's configuration.
func (d *Dataset) Config() Config { return d.cfg }

// Exponent returns the calibrated Zipf exponent (0 for OneItem/Random).
func (d *Dataset) Exponent() float64 { return d.exponent }

// rowPerm maps a Zipf rank to a table-specific row id via an affine
// bijection, so each table has its own set of hot rows (the paper notes
// hotness varies across tables within a dataset).
func (d *Dataset) rowPerm(table int) (mult, add uint64) {
	rows := uint64(d.cfg.Rows)
	h := stats.Mix64(d.cfg.Seed ^ uint64(table)*0x9E37)
	mult = h%rows | 1 // odd-ish start
	for gcd(mult, rows) != 1 {
		mult += 2
		if mult >= rows {
			mult = 1
		}
	}
	add = stats.Mix64(h) % rows
	return mult, add
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
	mult, add := d.rowPerm(tableIdx)
	var sample func() int32
	switch c.Hotness {
	case OneItem:
		sample = func() int32 { return 0 }
	case RandomAccess:
		sample = func() int32 { return int32(rng.Intn(c.Rows)) }
	default:
		z := stats.NewZipf(rng, c.Rows, d.exponent)
		sample = func() int32 {
			rank := uint64(z.Sample())
			return int32((rank*mult + add) % uint64(c.Rows))
		}
	}
	for s := 0; s < c.BatchSize; s++ {
		tb.Offsets[s] = int32(len(tb.Indices))
		for l := 0; l < c.LookupsPerSample; l++ {
			tb.Indices = append(tb.Indices, sample())
		}
	}
	tb.Offsets[c.BatchSize] = int32(len(tb.Indices))
	return tb
}

// UniqueFraction measures the fraction of distinct indices across the
// whole trace for one table — the statistic the paper characterizes
// datasets by.
func (d *Dataset) UniqueFraction(tableIdx int) float64 {
	seen := make(map[int32]struct{})
	total := 0
	for b := 0; b < d.cfg.Batches; b++ {
		tb := d.Batch(b, tableIdx)
		for _, ix := range tb.Indices {
			seen[ix] = struct{}{}
		}
		total += len(tb.Indices)
	}
	if total == 0 {
		return 0
	}
	return float64(len(seen)) / float64(total)
}

// AccessCounts returns per-row access counts for one table across the
// whole trace, sorted descending — the paper's Fig. 5 histogram.
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
