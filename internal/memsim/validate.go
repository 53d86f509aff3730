package memsim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Validate reports every problem with one cache level's geometry at once.
// The constructors panic on the same conditions (a bad geometry is a
// programming error by the time it reaches NewCache); Validate is the
// fail-fast front door the CLIs and config layers use to reject bad input
// with actionable messages before any simulation starts.
func (c CacheConfig) Validate() error {
	var errs []error
	if c.SizeBytes <= 0 {
		errs = append(errs, fmt.Errorf("memsim: %s: non-positive size %d bytes", c.Name, c.SizeBytes))
	}
	if c.Ways <= 0 {
		errs = append(errs, fmt.Errorf("memsim: %s: non-positive associativity %d", c.Name, c.Ways))
	}
	if c.LatencyCyc < 0 {
		errs = append(errs, fmt.Errorf("memsim: %s: negative hit latency %d", c.Name, c.LatencyCyc))
	}
	if c.SizeBytes > 0 && c.Ways > 0 && c.SizeBytes < LineSize*int64(c.Ways) {
		errs = append(errs, fmt.Errorf("memsim: %s: size %d bytes cannot hold one %d-way set of %d-byte lines",
			c.Name, c.SizeBytes, c.Ways, LineSize))
	}
	return errors.Join(errs...)
}

// Sets returns the power-of-two set count NewCache will build for this
// geometry (the size is rounded down to a power-of-two number of sets).
func (c CacheConfig) Sets() int64 {
	numSets := c.SizeBytes / (LineSize * int64(c.Ways))
	if numSets < 1 {
		numSets = 1
	}
	return 1 << (bits.Len64(uint64(numSets)) - 1)
}

// Validate reports every problem with the DRAM model's parameters.
func (d DRAMConfig) Validate() error {
	var errs []error
	if d.BaseLatencyCyc <= 0 {
		errs = append(errs, fmt.Errorf("memsim: DRAM: non-positive base latency %d", d.BaseLatencyCyc))
	}
	if d.PeakBandwidthBytesPerCyc <= 0 {
		errs = append(errs, fmt.Errorf("memsim: DRAM: non-positive peak bandwidth %g B/cyc", d.PeakBandwidthBytesPerCyc))
	}
	if d.QueueSensitivity < 0 {
		errs = append(errs, fmt.Errorf("memsim: DRAM: negative queue sensitivity %g", d.QueueSensitivity))
	}
	return errors.Join(errs...)
}

// Validate reports every problem with a full memory-system description:
// each level's geometry, the DRAM model, and the prefetch-engine degrees.
// All violations are returned together (errors.Join), so a CLI user fixes
// a bad config in one round trip instead of one flag at a time.
func (p MemParams) Validate() error {
	var errs []error
	for _, c := range []CacheConfig{p.L1, p.L2, p.L3} {
		if err := c.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := p.DRAM.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
