// Package stats provides deterministic random number generation, power-law
// (Zipf) sampling, histograms, and percentile estimation used throughout the
// simulator. All randomness in the repository flows through this package so
// that every experiment is reproducible bit-for-bit from its seed.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. The zero value is a valid generator seeded with 0; prefer
// NewRNG to make the seed explicit.
//
// RNG is not safe for concurrent use; give each goroutine its own stream
// via Split.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// SeededRNG returns a generator value seeded with seed. It produces the
// same stream as NewRNG(seed); hot paths that create one generator per
// simulated entity use it to keep the state on the stack.
func SeededRNG(seed uint64) RNG {
	return RNG{state: seed}
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output, so parallel workers can each take a
// split without sharing state.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			v := r.Float64()
			return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Shuffle pseudo-randomly reorders the n elements addressed by swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Mix64 is the stateless splitmix64 finalizer, useful for deriving
// deterministic per-key values (e.g. procedural embedding table contents)
// without carrying generator state.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// MixFloat01 maps an arbitrary key to a deterministic value in [0, 1).
func MixFloat01(x uint64) float64 {
	return float64(Mix64(x)>>11) / (1 << 53)
}

// SplitSeed derives the seed for stream `cell` of a run seeded with
// seed (a node's fault timeline, a device's jitter, a query's draw).
// Each stream is a decorrelated splitmix64 stream that is a pure
// function of (seed, cell) — no generator state is shared between
// streams, so neither worker count nor scheduling order can change
// which random stream a consumer draws from.
func SplitSeed(seed, cell uint64) uint64 {
	return Mix64(seed ^ (cell+1)*0x517CC1B727220A95)
}
