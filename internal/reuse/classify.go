package reuse

import (
	"fmt"

	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
)

// ReuseClass labels where a row reuse comes from, per the paper's §3.1.2
// taxonomy ("Insights on temporal locality").
type ReuseClass int

// The four reuse classes plus cold (first touch).
const (
	// ColdAccess is a first touch — no reuse.
	ColdAccess ReuseClass = iota
	// IntraTable: previous access to the row was in the same (core,
	// batch, table) pass — reuse within one embedding_bag invocation.
	IntraTable
	// InterBatch: previous access was by the same core in an earlier
	// batch (the paper's "thick red arrow": reuse across batches of the
	// same table, with nearly a whole pass of unique accesses between).
	InterBatch
	// InterCore: previous access was by a different core — constructive
	// sharing through the shared LLC.
	InterCore
	numReuseClasses
)

// String names the class.
func (c ReuseClass) String() string {
	switch c {
	case ColdAccess:
		return "cold"
	case IntraTable:
		return "intra-table"
	case InterBatch:
		return "inter-batch"
	case InterCore:
		return "inter-core"
	default:
		return "invalid"
	}
}

// Note on inter-table reuse: two tables never share rows (disjoint key
// spaces), so the paper's "inter-table" class manifests as *interference*
// (cache thrashing between tables), not as reuse; the decomposition here
// therefore classifies actual reuses into the three sharing classes and
// reports thrashing through the distance statistics instead.

// ClassStats aggregates reuse behavior for one class.
type ClassStats struct {
	Count        uint64
	DistanceSum  float64
	DistanceHist *stats.Histogram
}

// MeanDistance returns the class's mean stack distance.
func (s ClassStats) MeanDistance() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.DistanceSum / float64(s.Count)
}

// Decomposition is the per-class breakdown of a trace's accesses.
type Decomposition struct {
	// Classes indexes ClassStats by ReuseClass.
	Classes [numReuseClasses]ClassStats
	// Accesses is the total trace length.
	Accesses uint64
}

// Fraction returns the share of all accesses in the class.
func (d *Decomposition) Fraction(c ReuseClass) float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.Classes[c].Count) / float64(d.Accesses)
}

// lastTouch records who touched a row last.
type lastTouch struct {
	core  int
	batch int32
}

// Decompose replays the dataset's index-access trace in Run's order
// (walk) and attributes every access to a reuse class, measuring
// per-class stack distances. This reproduces the paper's qualitative
// §3.1.2 analysis as a quantitative table.
func Decompose(d *trace.Dataset, cores int) (*Decomposition, error) {
	if cores < 1 {
		return nil, fmt.Errorf("reuse: %d cores", cores)
	}
	tc := d.Config()
	dec := &Decomposition{}
	for i := range dec.Classes {
		dec.Classes[i].DistanceHist = stats.NewHistogram()
	}
	an := NewAnalyzer(tc.BatchSize * tc.LookupsPerSample * tc.Tables)
	last := make(map[uint64]lastTouch)
	walk(d, cores, func(core, batch int, key uint64) {
		dist := an.Access(key)
		prev, seen := last[key]
		cls := IntraTable
		switch {
		case !seen:
			cls = ColdAccess
		case prev.core != core:
			cls = InterCore
		case prev.batch != int32(batch):
			cls = InterBatch
		}
		last[key] = lastTouch{core: core, batch: int32(batch)}
		cs := &dec.Classes[cls]
		cs.Count++
		if dist >= 0 {
			cs.DistanceSum += float64(dist)
			cs.DistanceHist.Add(dist)
		} else {
			cs.DistanceHist.AddInf()
		}
		dec.Accesses++
	})
	return dec, nil
}
