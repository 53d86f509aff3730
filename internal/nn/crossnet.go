package nn

import (
	"errors"
	"fmt"

	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/stats"
)

// crossBase places cross-network weights in their own address region.
const crossBase memsim.Addr = 1 << 37

// CrossNet is a DCN-v2 style cross network with low-rank weights: each
// layer computes
//
//	x_{l+1} = x0 ⊙ (U_l · (V_l · x_l) + b_l) + x_l
//
// over the concatenated feature vector x0 = [bottom | emb_1 | ... |
// emb_T]. The paper's §2.3 argues its optimizations transfer to such
// models because they keep the same embedding front end; CrossNet lets
// the repository test that claim (see the ext6 experiment).
type CrossNet struct {
	// Dim is the concatenated feature width.
	Dim int
	// Rank is the low-rank factor width (DCN-v2's U/V matrices).
	Rank int
	// Layers is the number of cross layers.
	Layers int
	// Seed derives the procedural weights.
	Seed uint64
}

// Validate reports every non-positive field at once.
func (c CrossNet) Validate() error {
	return errors.Join(positive("cross net Dim", c.Dim), positive("cross net Rank", c.Rank),
		positive("cross net Layers", c.Layers))
}

// WeightBytes returns the parameter footprint: per layer, V (rank×dim),
// U (dim×rank), and the bias (dim), all fp32.
func (c CrossNet) WeightBytes() int64 {
	perLayer := int64(c.Rank)*int64(c.Dim)*2*4 + int64(c.Dim)*4
	return int64(c.Layers) * perLayer
}

// FLOPs returns multiply-add FLOPs for one pass over `batch` samples.
func (c CrossNet) FLOPs(batch int) int64 {
	// V·x and U·(Vx): 2·rank·dim each... V·x = 2·rank·dim, U·y = 2·dim·rank,
	// plus the Hadamard and residual (3·dim).
	perSample := int64(c.Layers) * (4*int64(c.Rank)*int64(c.Dim) + 3*int64(c.Dim))
	return int64(batch) * perSample
}

func (c CrossNet) v(l, i, j int) float32 { // V_l[i][j], i<rank, j<dim
	h := stats.Mix64(c.Seed ^ 0x5EC ^ uint64(l)<<40 ^ uint64(i)<<20 ^ uint64(j))
	return float32(stats.MixFloat01(h)-0.5) * 0.02
}

func (c CrossNet) u(l, i, j int) float32 { // U_l[i][j], i<dim, j<rank
	h := stats.Mix64(c.Seed ^ 0xA11CE ^ uint64(l)<<40 ^ uint64(i)<<20 ^ uint64(j))
	return float32(stats.MixFloat01(h)-0.5) * 0.02
}

func (c CrossNet) bias(l, i int) float32 {
	h := stats.Mix64(c.Seed ^ 0xB1A5 ^ uint64(l)<<32 ^ uint64(i))
	return float32(stats.MixFloat01(h)-0.5) * 0.01
}

// Forward evaluates the cross network on x0 (length Dim) and returns the
// final layer's output (length Dim).
func (c CrossNet) Forward(x0 []float32) ([]float32, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(x0) != c.Dim {
		return nil, fmt.Errorf("nn: cross input dim %d, want %d", len(x0), c.Dim)
	}
	x := append([]float32(nil), x0...)
	vx := make([]float32, c.Rank)
	for l := 0; l < c.Layers; l++ {
		for r := 0; r < c.Rank; r++ {
			var acc float32
			for j, v := range x {
				acc += c.v(l, r, j) * v
			}
			vx[r] = acc
		}
		next := make([]float32, c.Dim)
		for i := 0; i < c.Dim; i++ {
			acc := c.bias(l, i)
			for r := 0; r < c.Rank; r++ {
				acc += c.u(l, i, r) * vx[r]
			}
			next[i] = x0[i]*acc + x[i]
		}
		x = next
	}
	return x, nil
}

// NewStream returns the cross network's instruction stream: per layer the
// U/V weight matrices stream sequentially (HW-prefetch-friendly) with the
// layer's compute interleaved.
func (c CrossNet) NewStream(cfg StreamConfig) cpusim.Stream {
	checkStreamConfig(cfg)
	if err := c.Validate(); err != nil {
		panic(err)
	}
	base := crossBase + memsim.Addr(stats.Mix64(c.Seed)%(1<<24))*memsim.LineSize
	s := newLineStream(base, c.WeightBytes(), c.FLOPs(cfg.Batch), cfg)
	return &s
}
