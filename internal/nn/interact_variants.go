package nn

import (
	"fmt"

	"dlrmsim/internal/cpusim"
)

// concat joins the bottom vector and the embedding vectors, validating
// the shared dimension.
func concat(dim, tables int, bottom []float32, emb [][]float32) ([]float32, error) {
	if len(bottom) != dim {
		return nil, fmt.Errorf("nn: interaction bottom dim %d, want %d", len(bottom), dim)
	}
	if len(emb) != tables {
		return nil, fmt.Errorf("nn: interaction got %d tables, want %d", len(emb), tables)
	}
	out := make([]float32, 0, (tables+1)*dim)
	out = append(out, bottom...)
	for t, e := range emb {
		if len(e) != dim {
			return nil, fmt.Errorf("nn: interaction table %d dim %d, want %d", t, len(e), dim)
		}
		out = append(out, e...)
	}
	return out, nil
}

// CrossInteraction is the DCN-v2 variant: features are concatenated and
// refined by a low-rank cross network; the cross output is the top MLP's
// input.
type CrossInteraction struct {
	// Dim is the shared vector dimension; Tables the embedding count.
	Dim    int
	Tables int
	// Net is the cross network over the concatenated width.
	Net CrossNet
}

// NewCrossInteraction builds the variant with the conventional DCN-v2
// defaults (rank 64 capped at half the concat width, 3 layers).
func NewCrossInteraction(dim, tables int, seed uint64) (CrossInteraction, error) {
	if dim < 1 || tables < 1 {
		return CrossInteraction{}, fmt.Errorf("nn: bad cross interaction %dx%d", dim, tables)
	}
	concatDim := (tables + 1) * dim
	rank := 64
	if rank > concatDim/2 {
		rank = (concatDim + 1) / 2
	}
	return CrossInteraction{
		Dim: dim, Tables: tables,
		Net: CrossNet{Dim: concatDim, Rank: rank, Layers: 3, Seed: seed ^ 0xDC2},
	}, nil
}

// OutputDim implements Interactor.
func (c CrossInteraction) OutputDim() int { return c.Net.Dim }

// FLOPs implements Interactor.
func (c CrossInteraction) FLOPs(batch int) int64 { return c.Net.FLOPs(batch) }

// Forward implements Interactor.
func (c CrossInteraction) Forward(bottom []float32, emb [][]float32) ([]float32, error) {
	x0, err := concat(c.Dim, c.Tables, bottom, emb)
	if err != nil {
		return nil, err
	}
	return c.Net.Forward(x0)
}

// NewStream implements Interactor.
func (c CrossInteraction) NewStream(cfg StreamConfig) cpusim.Stream {
	return c.Net.NewStream(cfg)
}

// ConcatInteraction is the Wide&Deep-style variant: plain concatenation,
// no interaction compute — the top MLP sees every feature directly.
type ConcatInteraction struct {
	Dim    int
	Tables int
}

// OutputDim implements Interactor.
func (c ConcatInteraction) OutputDim() int { return (c.Tables + 1) * c.Dim }

// FLOPs implements Interactor: concatenation is data movement only.
func (c ConcatInteraction) FLOPs(batch int) int64 { return 0 }

// Forward implements Interactor.
func (c ConcatInteraction) Forward(bottom []float32, emb [][]float32) ([]float32, error) {
	return concat(c.Dim, c.Tables, bottom, emb)
}

// NewStream implements Interactor: one pass over the activation lines.
func (c ConcatInteraction) NewStream(cfg StreamConfig) cpusim.Stream {
	checkStreamConfig(cfg)
	s := newLineStream(interactBase, int64(c.OutputDim())*4*int64(cfg.Batch), 0, cfg)
	s.compute = false
	return &s
}
