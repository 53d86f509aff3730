package core

import (
	"errors"
	"fmt"

	"dlrmsim/internal/embedding"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/platform"
)

// Validate reports every violation in the options at once (errors.Join),
// under the zero-means-default convention: zero fields are fine, values
// that no default can repair are not. The CLIs call it on every cell
// before a sweep starts, so a bad flag fails in milliseconds with an
// actionable list instead of a NaN table — or a panic — hours later.
func (o Options) Validate() error {
	_, err := o.Resolve()
	return err
}

// Resolve returns what Validate reports, or the options with every
// zero-means-default field filled: the cell the engine runs. It is the one
// place the engine's defaults are written, so two spellings of one design
// point resolve to equal Options.
func (o Options) Resolve() (Options, error) {
	r := o
	if r.CPU.Name == "" {
		r.CPU = platform.CascadeLake()
	}
	if r.BatchSize == 0 {
		r.BatchSize = 64
	}
	if r.Batches == 0 {
		r.Batches = 1
	}
	if r.Cores == 0 {
		r.Cores = r.CPU.Cores
	}
	r.Sockets = max(r.Sockets, 1)
	if r.ActiveCores == 0 {
		r.ActiveCores = r.Cores
	}
	if r.Scheme.UsesSWPrefetch() && !r.Prefetch.Enabled() {
		r.Prefetch = embedding.PrefetchConfig{Dist: r.CPU.TunedPFDist, Blocks: r.CPU.TunedPFBlocks}
	}

	// The checks read the fields as given, against r's platform and cores.
	var errs []error
	if err := o.Model.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := r.CPU.Validate(); err != nil {
		errs = append(errs, err)
	}
	if o.BatchSize < 0 {
		errs = append(errs, fmt.Errorf("core: negative batch size %d", o.BatchSize))
	}
	if o.Batches < 0 {
		errs = append(errs, fmt.Errorf("core: negative batch count %d", o.Batches))
	}
	if o.Cores < 0 || o.Cores > r.CPU.Cores {
		errs = append(errs, fmt.Errorf("core: %d cores on a %d-core %s", o.Cores, r.CPU.Cores, r.CPU.Name))
	}
	if o.Sockets < 0 || o.Sockets > memsim.MaxSockets {
		errs = append(errs, fmt.Errorf("core: %d sockets outside [0, %d]", o.Sockets, memsim.MaxSockets))
	}
	if total := r.Sockets * r.Cores; o.ActiveCores < 0 || o.ActiveCores > total {
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
	if err := errors.Join(errs...); err != nil {
		return Options{}, err
	}
	return r, nil
}
