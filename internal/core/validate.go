package core

import (
	"errors"
	"fmt"

	"dlrmsim/internal/memsim"
	"dlrmsim/internal/platform"
)

// Validate reports every violation in the options at once (errors.Join),
// under the zero-means-default convention: zero fields are fine, values
// that no default can repair are not. Run calls it before filling
// defaults, and the CLIs call it on every cell before a sweep starts, so a
// bad flag fails in milliseconds with an actionable list instead of
// surfacing as a NaN table — or a panic — hours into the grid.
func (o Options) Validate() error {
	var errs []error
	if err := o.Model.Validate(); err != nil {
		errs = append(errs, err)
	}
	cpu := o.CPU
	if cpu.Name == "" {
		cpu = platform.CascadeLake()
	}
	if err := cpu.Validate(); err != nil {
		errs = append(errs, err)
	}
	if o.BatchSize < 0 {
		errs = append(errs, fmt.Errorf("core: negative batch size %d", o.BatchSize))
	}
	if o.Batches < 0 {
		errs = append(errs, fmt.Errorf("core: negative batch count %d", o.Batches))
	}
	if o.Cores < 0 || o.Cores > cpu.Cores {
		errs = append(errs, fmt.Errorf("core: %d cores on a %d-core %s", o.Cores, cpu.Cores, cpu.Name))
	}
	if o.Sockets < 0 || o.Sockets > memsim.MaxSockets {
		errs = append(errs, fmt.Errorf("core: %d sockets outside [0, %d]", o.Sockets, memsim.MaxSockets))
	}
	cores := o.Cores
	if cores == 0 {
		cores = cpu.Cores
	}
	if total := max(o.Sockets, 1) * cores; o.ActiveCores < 0 || o.ActiveCores > total {
		errs = append(errs, fmt.Errorf("core: %d active cores outside [0, %d]", o.ActiveCores, total))
	}
	if o.Scheme < Baseline || o.Scheme > Integrated {
		errs = append(errs, fmt.Errorf("core: invalid scheme %d", int(o.Scheme)))
	}
	if o.BandwidthIterations < 0 {
		errs = append(errs, fmt.Errorf("core: negative bandwidth iterations %d", o.BandwidthIterations))
	}
	if o.Prefetch.Dist < 0 || o.Prefetch.Blocks < 0 {
		errs = append(errs, fmt.Errorf("core: negative prefetch knobs (dist %d, blocks %d)",
			o.Prefetch.Dist, o.Prefetch.Blocks))
	}
	if o.EmbeddingOnly && o.Scheme.UsesSMT() {
		errs = append(errs, fmt.Errorf("core: embedding-only runs are sequential; %v uses SMT", o.Scheme))
	}
	return errors.Join(errs...)
}
