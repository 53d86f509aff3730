package nn

import (
	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/memsim"
)

// interactBase places interaction scratch buffers in their own region.
const interactBase memsim.Addr = 1 << 38

// Interactor is a feature-interaction layer: it merges the bottom-MLP
// output with the pooled embedding vectors into the top MLP's input. The
// DLRM paper uses pairwise dot products (Interaction); DCN-v2 models use
// cross layers (CrossInteraction); Wide&Deep-style models concatenate
// (ConcatInteraction). All variants share the embedding front end, which
// is why the paper's optimizations transfer across model families (§2.3).
type Interactor interface {
	// OutputDim is the width fed to the top MLP.
	OutputDim() int
	// Forward merges one sample's bottom vector and embedding vectors.
	Forward(bottom []float32, emb [][]float32) ([]float32, error)
	// FLOPs is the multiply-add work for one batch.
	FLOPs(batch int) int64
	// NewStream is the stage's instruction stream for one batch.
	NewStream(cfg StreamConfig) cpusim.Stream
}

// Interaction implements DLRM's dot-product feature interaction: given the
// bottom-MLP output and one pooled embedding vector per table (all of
// dimension Dim), it computes all pairwise dot products among the
// (Tables+1) vectors and concatenates them with the bottom-MLP output.
type Interaction struct {
	// Dim is the shared vector dimension.
	Dim int
	// Tables is the number of embedding vectors (the bottom-MLP output
	// makes it Tables+1 interacting features).
	Tables int
}

// OutputDim returns the interaction output size: the bottom-MLP vector
// plus the strictly-lower-triangle of the pairwise dot-product matrix.
func (it Interaction) OutputDim() int {
	n := it.Tables + 1
	return it.Dim + n*(n-1)/2
}

// FLOPs returns the multiply-add FLOPs for one batch of `batch` samples.
func (it Interaction) FLOPs(batch int) int64 {
	n := int64(it.Tables + 1)
	return int64(batch) * n * (n - 1) / 2 * int64(it.Dim) * 2
}

// Forward computes the interaction for one sample: bottom is the
// bottom-MLP output; emb[t] is table t's pooled vector.
func (it Interaction) Forward(bottom []float32, emb [][]float32) ([]float32, error) {
	x, err := concat(it.Dim, it.Tables, bottom, emb)
	if err != nil {
		return nil, err
	}
	vec := func(i int) []float32 { return x[i*it.Dim : (i+1)*it.Dim] }
	out := make([]float32, 0, it.OutputDim())
	out = append(out, bottom...)
	for i := 1; i <= it.Tables; i++ {
		vi := vec(i)
		for j := 0; j < i; j++ {
			var dot float32
			for k, v := range vec(j) {
				dot += vi[k] * v
			}
			out = append(out, dot)
		}
	}
	return out, nil
}

// NewStream returns the interaction's instruction stream for one batch.
// The inputs are recently produced activations (cache-resident), so the
// stream is dominated by compute with a light pass over the activation
// lines.
func (it Interaction) NewStream(cfg StreamConfig) cpusim.Stream {
	checkStreamConfig(cfg)
	actBytes := int64(it.Tables+1) * int64(it.Dim) * 4 * int64(cfg.Batch)
	s := newLineStream(interactBase, actBytes, it.FLOPs(cfg.Batch), cfg)
	return &s
}
