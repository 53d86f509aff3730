// Package nn implements the dense stages of DLRM: multi-layer perceptrons
// and the pairwise-dot feature-interaction layer, both as numeric
// operators and as instruction streams for the timing simulator.
//
// Weights are procedural (hash-derived), like embedding tables: no storage,
// full reproducibility. The MLP instruction stream interleaves sequential
// weight-line loads with compute blocks — the regular, hardware-prefetch-
// friendly pattern that makes these stages compute-bound on real CPUs.
package nn

import (
	"errors"
	"fmt"
	"math"

	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/stats"
)

// WeightsBase places MLP weights in their own address region. An MLP's
// base lies within 2^38 bytes above it, and its layer l starts l<<24
// above that base.
const WeightsBase memsim.Addr = 1 << 36

// MLP is a fully-connected ReLU network. Construct with NewMLP.
type MLP struct {
	name       string
	dims       []int // dims[0] is the input size; dims[1:] are layer widths
	seed       uint64
	base       memsim.Addr
	sigmoidOut bool
}

// NewMLP builds an MLP named name with the given dimension chain
// (input, hidden..., output). sigmoidOut applies a sigmoid at the last
// layer (DLRM's top MLP produces a CTR probability); otherwise all layers
// use ReLU except the linear last layer.
func NewMLP(name string, dims []int, seed uint64, sigmoidOut bool) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("nn: MLP %q needs at least input and output dims, got %v", name, dims)
	}
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("nn: MLP %q has non-positive dim in %v", name, dims)
		}
	}
	m := &MLP{name: name, dims: append([]int(nil), dims...), seed: seed, sigmoidOut: sigmoidOut}
	m.base = WeightsBase + memsim.Addr(stats.Mix64(seed^uint64(len(name)))%(1<<30))*256
	return m, nil
}

// InputDim and OutputDim return the end dimensions.
func (m *MLP) InputDim() int { return m.dims[0] }

// OutputDim returns the final layer width.
func (m *MLP) OutputDim() int { return m.dims[len(m.dims)-1] }

// Layers returns the number of weight matrices.
func (m *MLP) Layers() int { return len(m.dims) - 1 }

// WeightBytes returns the total weight footprint (fp32, plus biases).
func (m *MLP) WeightBytes() int64 {
	var total int64
	for l := 0; l < m.Layers(); l++ {
		total += int64(m.dims[l])*int64(m.dims[l+1])*4 + int64(m.dims[l+1])*4
	}
	return total
}

// FLOPs returns the multiply-add FLOPs for one forward pass of `batch`
// samples.
func (m *MLP) FLOPs(batch int) int64 {
	var f int64
	for l := 0; l < m.Layers(); l++ {
		f += 2 * int64(m.dims[l]) * int64(m.dims[l+1])
	}
	return f * int64(batch)
}

// weight returns the procedural weight W[l][i][j] (input i, output j),
// scaled like Xavier initialization.
func (m *MLP) weight(l, i, j int) float32 {
	h := stats.Mix64(m.seed ^ uint64(l)<<40 ^ uint64(i)<<20 ^ uint64(j))
	scale := math.Sqrt(2.0 / float64(m.dims[l]+m.dims[l+1]))
	return float32((stats.MixFloat01(h) - 0.5) * 2 * scale)
}

// bias returns the procedural bias b[l][j].
func (m *MLP) bias(l, j int) float32 {
	h := stats.Mix64(m.seed ^ 0xB1A5 ^ uint64(l)<<32 ^ uint64(j))
	return float32((stats.MixFloat01(h) - 0.5) * 0.02)
}

// Forward evaluates the MLP on a batch of input rows. Each input must
// have length InputDim. The returned rows have length OutputDim.
func (m *MLP) Forward(inputs [][]float32) ([][]float32, error) {
	out := make([][]float32, len(inputs))
	for s, in := range inputs {
		if len(in) != m.dims[0] {
			return nil, fmt.Errorf("nn: MLP %q sample %d has dim %d, want %d", m.name, s, len(in), m.dims[0])
		}
		cur := in
		for l := 0; l < m.Layers(); l++ {
			next := make([]float32, m.dims[l+1])
			for j := range next {
				acc := m.bias(l, j)
				for i, v := range cur {
					acc += v * m.weight(l, i, j)
				}
				next[j] = acc
			}
			last := l == m.Layers()-1
			switch {
			case last && m.sigmoidOut:
				for j, v := range next {
					next[j] = float32(1 / (1 + math.Exp(-float64(v))))
				}
			case !last:
				for j, v := range next {
					if v < 0 {
						next[j] = 0
					}
				}
			}
			cur = next
		}
		out[s] = cur
	}
	return out, nil
}

// StreamConfig configures MLP instruction-stream generation.
type StreamConfig struct {
	// FlopsPerCycle is the platform's effective f32 throughput.
	FlopsPerCycle float64
	// Batch is the number of samples processed per pass.
	Batch int
}

// NewStream returns the instruction stream of one forward pass: for each
// layer, the weight matrix is streamed line-by-line (sequential loads the
// hardware stride prefetcher loves) interleaved with the matching share
// of the layer's compute.
func (m *MLP) NewStream(cfg StreamConfig) cpusim.Stream {
	checkStreamConfig(cfg)
	return &mlpStream{m: m, cfg: cfg}
}

// layerStream is layer l's weight pass: every weight and bias line
// loaded in order, the layer's batch FLOPs spread evenly across them.
func (m *MLP) layerStream(l int, cfg StreamConfig) lineStream {
	wBytes := int64(m.dims[l])*int64(m.dims[l+1])*4 + int64(m.dims[l+1])*4
	flops := 2 * int64(m.dims[l]) * int64(m.dims[l+1]) * int64(cfg.Batch)
	return newLineStream(m.base+memsim.Addr(l)<<24, wBytes, flops, cfg)
}

// mlpStream runs the layers' weight passes back to back.
type mlpStream struct {
	m     *MLP
	cfg   StreamConfig
	layer int // next layer to enter
	lineStream
}

// Next implements cpusim.Stream.
func (s *mlpStream) Next(op *cpusim.Op) bool {
	for !s.lineStream.Next(op) {
		if s.layer >= s.m.Layers() {
			return false
		}
		s.lineStream = s.m.layerStream(s.layer, s.cfg)
		s.layer++
	}
	return true
}

// lineStream is the dense stages' one access pattern: load line i of a
// contiguous region, then spend perLine cycles of compute on it, for
// every line in turn. A stream without compute only loads.
type lineStream struct {
	base    memsim.Addr
	lines   int64
	perLine float64
	compute bool
	line    int64 // next line to load
	loaded  bool  // line's load is out and its compute is next
}

// newLineStream covers bytes from base, spreading flops (FLOPs at
// cfg.FlopsPerCycle) evenly over the lines.
func newLineStream(base memsim.Addr, bytes, flops int64, cfg StreamConfig) lineStream {
	lines := (bytes + memsim.LineSize - 1) / memsim.LineSize
	return lineStream{
		base: base, lines: lines, compute: true,
		perLine: float64(flops) / cfg.FlopsPerCycle / float64(lines),
	}
}

// Next implements cpusim.Stream.
func (s *lineStream) Next(op *cpusim.Op) bool {
	if s.loaded {
		*op = cpusim.Op{Kind: cpusim.OpCompute, Cost: s.perLine}
		s.loaded = false
		s.line++
		return true
	}
	if s.line >= s.lines {
		return false
	}
	*op = cpusim.Op{Kind: cpusim.OpLoad, Addr: s.base + memsim.Addr(s.line*memsim.LineSize)}
	if s.compute {
		s.loaded = true
	} else {
		s.line++
	}
	return true
}

// checkStreamConfig panics on a config no stream can be built from (a
// caller bug, not a runtime condition).
func checkStreamConfig(cfg StreamConfig) {
	if err := errors.Join(positive("stream FlopsPerCycle", cfg.FlopsPerCycle), positive("stream Batch", cfg.Batch)); err != nil {
		panic(err)
	}
}

// positive names field in an error unless v > 0.
func positive[T int | float64](field string, v T) error {
	if v > 0 {
		return nil
	}
	return fmt.Errorf("nn: %s %v (want > 0)", field, v)
}
