package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"dlrmsim/internal/pin"
)

// zipfPinRows × zipfPinExponents is the grid the stream pin covers: the degenerate
// one- and two-row tables, a small table, the bench and paper table
// heights, and the three reference exponents plus s = 1 (sampled as
// 1+1e-9) and a steep 2.5.
var (
	zipfPinRows      = []int{1, 2, 50, 50_000, 1_000_000}
	zipfPinExponents = []float64{0.40, 0.893, 1.0, 1.326, 2.5}
)

// zipfStream is one pinned cell: the SHA-256 of the first draws
// SampleWith ranks (little-endian uint32 each) and the generator's final
// state.
type zipfStream struct {
	Stream string
	State  uint64
}

// drawZipfStream draws draws ranks from the shared (n, s) sampler on
// the cell's own generator.
func drawZipfStream(n int, s float64, cell uint64, draws int) zipfStream {
	z := NewSharedZipf(n, s)
	r := NewRNG(SplitSeed(0x5A1F, cell))
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	for i := 0; i < draws; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(z.SampleWith(r)))
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return zipfStream{hex.EncodeToString(h.Sum(nil)), r.state}
}

// TestZipfStreamPinned pins the exact rank stream of the shared sampler
// every cluster run draws from, in testdata/zipf_stream.pin keyed
// "n=<rows> s=<exponent>". Any change to SampleWith that moves a single
// rank changes a cell's Stream; one that consumes a different number of
// Float64 draws also moves its State.
func TestZipfStreamPinned(t *testing.T) {
	cells := map[string]zipfStream{}
	cell := uint64(0)
	for _, n := range zipfPinRows {
		for _, s := range zipfPinExponents {
			cells[fmt.Sprintf("n=%d s=%g", n, s)] = drawZipfStream(n, s, cell, 1_000_000)
			cell++
		}
	}
	pin.Check(t, "zipf_stream", cells)
}
