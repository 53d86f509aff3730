// Package dlrm assembles the four-stage DLRM inference pipeline — bottom
// MLP, embedding lookup, feature interaction, top MLP — from the
// embedding and nn substrates, and provides the paper's Table 2 model zoo
// (RM1, RM2_1, RM2_2, RM2_3).
package dlrm

import (
	"fmt"

	"dlrmsim/internal/embedding"
)

// DenseFeatures is the dense-input width (the Criteo convention of 13
// continuous features, which the paper's DLRM configurations inherit).
const DenseFeatures = 13

// InteractionKind selects the feature-interaction family — the main
// architectural difference among the recommendation models the paper's
// §2.3 surveys (DLRM, DCN, Wide&Deep, ...). All families keep the same
// embedding front end, which is what the paper's optimizations target.
type InteractionKind int

const (
	// DotInteraction is DLRM's pairwise dot products (the default).
	DotInteraction InteractionKind = iota
	// CrossInteraction is a DCN-v2-style low-rank cross network.
	CrossInteraction
	// ConcatInteraction is Wide&Deep-style concatenation.
	ConcatInteraction
)

// String names the interaction kind.
func (k InteractionKind) String() string {
	switch k {
	case DotInteraction:
		return "dot (DLRM)"
	case CrossInteraction:
		return "cross (DCN-v2)"
	case ConcatInteraction:
		return "concat (Wide&Deep)"
	default:
		return "invalid"
	}
}

// Config describes one DLRM architecture (a row of the paper's Table 2).
type Config struct {
	// Name tags the model in reports ("rm2_1", ...).
	Name string
	// Class is "RMC1" or "RMC2" (the paper's model classes).
	Class string
	// Tables is the number of embedding tables.
	Tables int
	// RowsPerTable is the embedding-table height.
	RowsPerTable int
	// EmbDim is the embedding dimension (also the bottom-MLP output).
	EmbDim int
	// EmbDType is the embedding storage type (zero value = fp32, the
	// paper's configuration; Int8/F16 model quantized deployments).
	EmbDType embedding.DType
	// LookupsPerSample is the pooling factor per table.
	LookupsPerSample int
	// BottomMLP lists the bottom-MLP layer widths (output last; the
	// input is DenseFeatures). The last width must equal EmbDim.
	BottomMLP []int
	// TopMLP lists the top-MLP layer widths (its input is the feature-
	// interaction output; the last width is 1, the CTR logit).
	TopMLP []int
	// Interaction selects the feature-interaction family (zero value =
	// DLRM's pairwise dot products).
	Interaction InteractionKind
	// SLATargetMs is the class's service-level target (Table 1).
	SLATargetMs float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Tables < 1 || c.RowsPerTable < 1 || c.EmbDim < 1 || c.LookupsPerSample < 1 {
		return fmt.Errorf("dlrm: %s: non-positive dimension", c.Name)
	}
	if len(c.BottomMLP) == 0 || len(c.TopMLP) == 0 {
		return fmt.Errorf("dlrm: %s: missing MLP widths", c.Name)
	}
	if c.BottomMLP[len(c.BottomMLP)-1] != c.EmbDim {
		return fmt.Errorf("dlrm: %s: bottom-MLP output %d != embedding dim %d",
			c.Name, c.BottomMLP[len(c.BottomMLP)-1], c.EmbDim)
	}
	if c.TopMLP[len(c.TopMLP)-1] != 1 {
		return fmt.Errorf("dlrm: %s: top-MLP output must be 1", c.Name)
	}
	return nil
}

// EmbeddingBytes returns the total embedding-table footprint.
func (c Config) EmbeddingBytes() int64 {
	return int64(c.Tables) * c.PerTableBytes()
}

// PerTableBytes returns one table's footprint (the paper's "per table
// capacity" column).
func (c Config) PerTableBytes() int64 {
	return int64(c.RowsPerTable) * int64(c.EmbDType.RowBytes(c.EmbDim))
}

// RM2Small returns rm2_1: the small RMC2 model (60 tables × 1M × 128,
// 120 lookups/sample). ~28.6 GB of embeddings at full scale.
func RM2Small() Config {
	return Config{
		Name: "rm2_1", Class: "RMC2",
		Tables: 60, RowsPerTable: 1_000_000, EmbDim: 128, LookupsPerSample: 120,
		BottomMLP:   []int{256, 128, 128},
		TopMLP:      []int{128, 64, 1},
		SLATargetMs: 400,
	}
}

// RM2Medium returns rm2_2: the medium RMC2 model (120 tables, 150
// lookups). ~57.2 GB at full scale.
func RM2Medium() Config {
	return Config{
		Name: "rm2_2", Class: "RMC2",
		Tables: 120, RowsPerTable: 1_000_000, EmbDim: 128, LookupsPerSample: 150,
		BottomMLP:   []int{1024, 512, 128, 128},
		TopMLP:      []int{384, 192, 1},
		SLATargetMs: 400,
	}
}

// RM2Large returns rm2_3: the large RMC2 model (170 tables, 180 lookups).
// ~81.1 GB at full scale.
func RM2Large() Config {
	return Config{
		Name: "rm2_3", Class: "RMC2",
		Tables: 170, RowsPerTable: 1_000_000, EmbDim: 128, LookupsPerSample: 180,
		BottomMLP:   []int{2048, 1024, 256, 128},
		TopMLP:      []int{512, 256, 1},
		SLATargetMs: 400,
	}
}

// RM1 returns the mixed model (RMC1): lighter embeddings (32 tables ×
// 500K × 64, 80 lookups) with heavy MLPs, ~65% embedding time.
func RM1() Config {
	return Config{
		Name: "rm1", Class: "RMC1",
		Tables: 32, RowsPerTable: 500_000, EmbDim: 64, LookupsPerSample: 80,
		BottomMLP:   []int{2048, 2048, 256, 64},
		TopMLP:      []int{768, 384, 1},
		SLATargetMs: 100,
	}
}

// Zoo returns all Table 2 models in the paper's order.
func Zoo() []Config {
	return []Config{RM2Small(), RM2Medium(), RM2Large(), RM1()}
}

// EmbeddingHeavy returns the three RMC2 models of Figs. 12–13.
func EmbeddingHeavy() []Config {
	return []Config{RM2Small(), RM2Medium(), RM2Large()}
}

// ByName resolves a Table 2 model by name.
func ByName(name string) (Config, error) {
	for _, c := range Zoo() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("dlrm: unknown model %q", name)
}

// Scaled returns a copy of c with tables, lookups, rows, and MLP hidden
// widths divided by factor (respecting minimums and the structural
// constraints: the bottom MLP still ends in EmbDim, the top MLP in 1).
// Embedding work shrinks by ~factor² (tables × lookups) and MLP work by
// ~factor² (width²), preserving the model's stage balance while shrinking
// simulation cost. Used by tests and quick experiment modes; speedup
// *ratios* are insensitive to this scaling because every scheme sees the
// same work.
func (c Config) Scaled(factor int) Config {
	if factor <= 1 {
		return c
	}
	s := c
	s.Name = fmt.Sprintf("%s/div%d", c.Name, factor)
	if s.Tables = c.Tables / factor; s.Tables < 1 {
		s.Tables = 1
	}
	if s.LookupsPerSample = c.LookupsPerSample / factor; s.LookupsPerSample < 1 {
		s.LookupsPerSample = 1
	}
	if s.RowsPerTable = c.RowsPerTable / factor; s.RowsPerTable < 1 {
		s.RowsPerTable = 1
	}
	scaleWidths := func(widths []int, last int) []int {
		out := make([]int, len(widths))
		for i, w := range widths {
			if out[i] = w / factor; out[i] < 8 {
				out[i] = 8
			}
		}
		out[len(out)-1] = last
		return out
	}
	s.BottomMLP = scaleWidths(c.BottomMLP, c.EmbDim)
	s.TopMLP = scaleWidths(c.TopMLP, 1)
	return s
}
