package core

import (
	"fmt"

	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

// NUMAOptions configures a multi-socket embedding-stage run. The paper
// pins inference to one socket of its 2-socket testbed; this extension
// quantifies the alternative — page-interleaved tables with cores on one
// or both sockets.
type NUMAOptions struct {
	// Model, Hotness, BatchSize, Seed as in Options. The platform is the
	// paper's Cascade Lake 6240R (the only modeled 2-socket testbed).
	Model     dlrm.Config
	Hotness   trace.Hotness
	BatchSize int
	Seed      uint64

	// Sockets (1 or 2; 0 means 1) and CoresPerSocket shape the node.
	Sockets        int
	CoresPerSocket int
	// ActiveCores run one batch each (socket-major placement); the rest
	// idle. This is how "pinned to socket 0" (ActiveCores ≤
	// CoresPerSocket) versus "spread" is expressed.
	ActiveCores int
	// Prefetch enables Algorithm 3 in the embedding streams.
	Prefetch embedding.PrefetchConfig
	// BandwidthIterations bounds the per-socket fixed point.
	BandwidthIterations int
}

// NUMAReport is the embedding-only result of a multi-socket run.
type NUMAReport struct {
	BatchLatencyCycles float64
	BatchLatencyMs     float64
	AvgLoadLatency     float64
	RemoteFillFraction float64
	SocketBandwidthGBs []float64
}

// RunNUMA executes the embedding stage of one batch per active core on a
// (possibly) multi-socket Cascade Lake node. It runs on the engine's
// pooled cpusim.System, like Run.
func RunNUMA(opts NUMAOptions) (NUMAReport, error) {
	if err := opts.Validate(); err != nil {
		return NUMAReport{}, err
	}
	cpu := platform.CascadeLake()
	if opts.BatchSize == 0 {
		opts.BatchSize = 64
	}
	if opts.CoresPerSocket == 0 {
		opts.CoresPerSocket = cpu.Cores
	}
	if opts.ActiveCores == 0 {
		opts.ActiveCores = opts.CoresPerSocket
	}
	if total := max(opts.Sockets, 1) * opts.CoresPerSocket; opts.ActiveCores > total {
		return NUMAReport{}, fmt.Errorf("core: %d active cores on %d", opts.ActiveCores, total)
	}
	model, err := dlrm.New(opts.Model, opts.Seed)
	if err != nil {
		return NUMAReport{}, err
	}
	ds, err := trace.NewDataset(trace.Config{
		Hotness:          opts.Hotness,
		Rows:             opts.Model.RowsPerTable,
		Tables:           opts.Model.Tables,
		BatchSize:        opts.BatchSize,
		LookupsPerSample: opts.Model.LookupsPerSample,
		Batches:          opts.ActiveCores,
		Seed:             opts.Seed ^ 0xDA7A,
	})
	if err != nil {
		return NUMAReport{}, err
	}
	sysParams := cpusim.SystemParams{
		Core:                cpu.Core,
		Mem:                 cpu.Mem,
		Cores:               opts.CoresPerSocket,
		Sockets:             opts.Sockets,
		BandwidthIterations: opts.BandwidthIterations,
	}
	sys := acquireSystem(sysParams)
	defer releaseSystem(sysParams, sys)
	work := make([]cpusim.CoreWork, opts.ActiveCores)
	for c := 0; c < opts.ActiveCores; c++ {
		c := c
		work[c] = cpusim.SingleWork(func() cpusim.Stream {
			return model.EmbeddingStream(
				func(tableID int) trace.TableBatch { return ds.Batch(c, tableID) },
				dlrm.StreamParams{
					FlopsPerCycle: cpu.FlopsPerCycle,
					Batch:         opts.BatchSize,
					BufBase:       bufBase(c, 0),
					Prefetch:      opts.Prefetch,
				})
		})
	}
	res := sys.Run(work)
	rep := NUMAReport{
		BatchLatencyCycles: res.MeanCoreCycles(),
		AvgLoadLatency:     res.AvgLoadLatency,
		RemoteFillFraction: res.RemoteFillFraction,
	}
	rep.BatchLatencyMs = cpu.CyclesToMs(rep.BatchLatencyCycles)
	for _, b := range res.SocketBandwidthBytesPerCyc {
		rep.SocketBandwidthGBs = append(rep.SocketBandwidthGBs, b*cpu.FrequencyGHz)
	}
	return rep, nil
}
