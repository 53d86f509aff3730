package core

import (
	"context"
	"fmt"
	"sync"

	"dlrmsim/internal/check"
	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

// Stage labels used in Report.StageCycles.
const (
	StageEmbedding = "embedding"
	StageBottom    = "bottom-mlp"
	StageTop       = "interaction+top-mlp"
	StageSMTPair   = "embedding+bottom (SMT)"
	StageInference = "inference"
)

// Options configures one engine run; Resolve fills its zero defaults.
type Options struct {
	// Model is the DLRM architecture (a Table 2 config, possibly Scaled).
	Model dlrm.Config
	// CPU is the platform; Resolve fills a zero CPU with Cascade Lake.
	CPU platform.CPU
	// Hotness selects the input-trace class.
	Hotness trace.Hotness
	// Scheme selects the design point.
	Scheme Scheme
	// BatchSize defaults to 64, the paper's SLA-constrained choice.
	BatchSize int
	// Batches is the number of batches measured per core (default 1).
	Batches int
	// Cores is cores per socket; Resolve fills 0 with all of CPU.Cores.
	Cores int
	// Sockets is the socket count, 1 or 2; Resolve fills 0 with 1. On two
	// sockets memory is page-interleaved and a remote fill pays the
	// interconnect (see cpusim.SystemParams.Sockets).
	Sockets int
	// ActiveCores is how many cores get work, placed socket-major; the
	// rest idle. 0 means Cores. Two sockets with ActiveCores ≤ Cores run
	// on socket 0 against interleaved memory; more spread across both.
	ActiveCores int
	// Prefetch overrides the platform-tuned Algorithm 3 knobs for
	// SWPF/Integrated runs. Zero resolves to CPU.TunedPFDist/TunedPFBlocks.
	Prefetch embedding.PrefetchConfig
	// Seed drives parameter generation and the synthesized input trace
	// (a trace.Dataset of Batches×ActiveCores batches, 2x for DP-HT).
	Seed uint64
	// BandwidthIterations bounds the DRAM fixed point (0 = cpusim's
	// default of 3).
	BandwidthIterations int
	// EmbeddingOnly runs just the embedding stage (Figs. 12, Table 4).
	// Valid for Baseline, NoHWPF, and SWPF.
	EmbeddingOnly bool
}

// Report is the engine's output for one (model, platform, dataset, scheme)
// point.
type Report struct {
	// Scheme, ModelName, CPUName, Hotness identify the design point.
	Scheme    Scheme
	ModelName string
	CPUName   string
	Hotness   trace.Hotness

	// BatchLatencyCycles is the mean time one batch spends executing on
	// its core (queueing excluded); BatchLatencyMs converts it.
	BatchLatencyCycles float64
	BatchLatencyMs     float64
	// ThroughputBatchesPerSec counts completed batches per second across
	// all active cores (DP-HT trades latency for this).
	ThroughputBatchesPerSec float64
	// StageCycles is the mean per-batch duration of each pipeline stage.
	StageCycles map[string]float64

	// Microarchitectural metrics (the paper's VTune counters).
	AvgLoadLatency       float64
	L1HitRate            float64
	L2HitRate            float64
	L3HitRate            float64
	DRAMBytes            uint64
	BandwidthGBs         float64
	BandwidthUtilization float64
	SWPrefetches         uint64

	// RemoteFillFraction is the share of DRAM fills served by the other
	// socket, measured when every active core sits on socket 0 (see
	// cpusim.SystemResult); SocketBandwidthGBs is realized DRAM bandwidth
	// per socket.
	RemoteFillFraction float64
	SocketBandwidthGBs []float64
	// LookupsPerBatch is one batch's embedding lookups (batch size ×
	// tables × lookups per sample).
	LookupsPerBatch int
}

// batchRegion spaces per-batch buffer regions; inputs+outputs per batch
// stay far below this.
const batchRegion memsim.Addr = 1 << 28

// Systems are reused through one free list of idle Systems. A System is
// tens of MB of cache model and building one dominates a cell's
// allocations. Any idle System serves any run: acquireSystem takes the
// most recently released one and reshapes it to the run's parameters
// (cpusim.System.Reshape), which reuses its cache arrays, grows them only
// when the run needs more lines than they hold, and empties every cache.
// With System.Run resetting the rest of the state it reads, a reshaped
// System is observably fresh. A System is built only when the list is
// empty, so a process builds about one per concurrent engine run.
//
// maxIdleSystems bounds the list, so a burst of concurrent callers cannot
// pin unbounded memory once it ends: a release that finds the list full
// drops its System.
const maxIdleSystems = 8

var (
	sysMu   sync.Mutex
	sysFree []*cpusim.System // newest last
)

func acquireSystem(p cpusim.SystemParams) *cpusim.System {
	sysMu.Lock()
	n := len(sysFree)
	if n == 0 {
		sysMu.Unlock()
		return cpusim.NewSystem(p)
	}
	s := sysFree[n-1]
	sysFree[n-1] = nil
	sysFree = sysFree[:n-1]
	sysMu.Unlock()
	s.Reshape(p)
	return s
}

func releaseSystem(s *cpusim.System) {
	sysMu.Lock()
	if len(sysFree) < maxIdleSystems {
		sysFree = append(sysFree, s)
	}
	sysMu.Unlock()
}

// bufBase returns the private buffer region for a (core, instance) slot.
func bufBase(core, instance int) memsim.Addr {
	return memsim.Addr(1)<<33 + memsim.Addr(core*2+instance)*batchRegion
}

// Run executes one design point and reports its metrics. A run is a pure
// function of its options: every random stream inside (model parameters,
// trace synthesis) is derived statelessly from Options.Seed, so equal
// options produce bit-identical reports regardless of what else runs
// concurrently.
func Run(opts Options) (Report, error) {
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: a dead context makes the engine
// return ctx.Err() at the next checkpoint (before setup, after trace
// synthesis, before simulation) instead of completing the design point.
// A sweep uses this so a caller's cancellation stops its queued cells.
func RunContext(ctx context.Context, opts Options) (Report, error) {
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	opts, err := opts.Resolve()
	if err != nil {
		return Report{}, err
	}
	model, err := dlrm.New(opts.Model, opts.Seed)
	if err != nil {
		return Report{}, err
	}
	// DP-HT consumes two batches per core per round.
	perCore := opts.Batches
	instances := 1
	if opts.Scheme == DPHT {
		instances = 2
	}
	ds, err := trace.NewDataset(trace.Config{
		Hotness:          opts.Hotness,
		Rows:             opts.Model.RowsPerTable,
		Tables:           opts.Model.Tables,
		BatchSize:        opts.BatchSize,
		LookupsPerSample: opts.Model.LookupsPerSample,
		Batches:          opts.Batches * opts.ActiveCores * instances,
		Seed:             opts.Seed ^ 0xDA7A,
	})
	if err != nil {
		return Report{}, err
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}

	sys := acquireSystem(cpusim.SystemParams{
		Core:                opts.CPU.Core,
		Mem:                 opts.CPU.Mem,
		Cores:               opts.Cores,
		Sockets:             opts.Sockets,
		BandwidthIterations: opts.BandwidthIterations,
	})
	defer releaseSystem(sys)
	for i := 0; i < sys.Cores(); i++ {
		sys.Core(i).Hierarchy().HWPrefetchEnabled = opts.Scheme != NoHWPF
	}

	pf := embedding.PrefetchConfig{}
	if opts.Scheme.UsesSWPrefetch() {
		pf = opts.Prefetch
	}
	// The MLP streams read only the FLOP rate and batch size.
	mlp := dlrm.StreamParams{FlopsPerCycle: opts.CPU.FlopsPerCycle, Batch: opts.BatchSize}
	embStream := func(core, instance, batchIdx int) cpusim.StreamFactory {
		p := mlp
		p.BufBase, p.Prefetch = bufBase(core, instance), pf
		src := func(tableID int) trace.TableBatch { return ds.Batch(batchIdx, tableID) }
		return func() cpusim.Stream { return model.EmbeddingStream(src, p) }
	}
	bottomStream := func() cpusim.Stream { return model.BottomStream(mlp) }
	topStream := func() cpusim.Stream { return model.TopStream(mlp) }
	fullInference := func(core, instance, batchIdx int) cpusim.StreamFactory {
		emb := embStream(core, instance, batchIdx)
		return func() cpusim.Stream { return cpusim.NewConcatStream(emb(), bottomStream(), topStream()) }
	}

	active := opts.ActiveCores
	work := make([]cpusim.CoreWork, active)
	for c := 0; c < active; c++ {
		var phases []cpusim.Phase
		for b := 0; b < perCore; b++ {
			// Round-robin batch assignment: batch index advances across
			// cores first, then rounds.
			bi := b*active + c
			switch opts.Scheme {
			case Baseline, NoHWPF, SWPF:
				phases = append(phases, cpusim.Phase{
					Label:   StageEmbedding,
					Streams: []cpusim.StreamFactory{embStream(c, 0, bi)},
				})
				if !opts.EmbeddingOnly {
					phases = append(phases,
						cpusim.Phase{Label: StageBottom, Streams: []cpusim.StreamFactory{bottomStream}},
						cpusim.Phase{Label: StageTop, Streams: []cpusim.StreamFactory{topStream}},
					)
				}
			case DPHT:
				phases = append(phases, cpusim.Phase{
					Label:   StageInference,
					Streams: []cpusim.StreamFactory{fullInference(c, 0, 2*bi), fullInference(c, 1, 2*bi+1)},
				})
			case MPHT, Integrated:
				phases = append(phases,
					cpusim.Phase{Label: StageSMTPair, Streams: []cpusim.StreamFactory{embStream(c, 0, bi), bottomStream}},
					cpusim.Phase{Label: StageTop, Streams: []cpusim.StreamFactory{topStream}},
				)
			default:
				return Report{}, fmt.Errorf("core: unhandled scheme %v", opts.Scheme)
			}
		}
		work[c] = cpusim.CoreWork{Phases: phases}
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}

	res := sys.Run(work)

	rep := Report{
		Scheme:    opts.Scheme,
		ModelName: opts.Model.Name,
		CPUName:   opts.CPU.Name,
		Hotness:   opts.Hotness,

		AvgLoadLatency:       res.AvgLoadLatency,
		L1HitRate:            res.L1HitRate,
		L2HitRate:            res.L2HitRate,
		L3HitRate:            res.L3HitRate,
		DRAMBytes:            res.DRAMBytes,
		BandwidthUtilization: res.BandwidthUtilization,
		SWPrefetches:         res.SWPrefetches,
		RemoteFillFraction:   res.RemoteFillFraction,
		StageCycles:          map[string]float64{},
		LookupsPerBatch:      opts.BatchSize * opts.Model.Tables * opts.Model.LookupsPerSample,
	}
	rep.BatchLatencyCycles = res.MeanCoreCycles() / float64(perCore)
	rep.BatchLatencyMs = opts.CPU.CyclesToMs(rep.BatchLatencyCycles)
	if res.Cycles > 0 {
		secs := res.Cycles / (opts.CPU.FrequencyGHz * 1e9)
		rep.ThroughputBatchesPerSec = float64(perCore*instances*active) / secs
		rep.BandwidthGBs = res.BandwidthBytesPerCyc * opts.CPU.FrequencyGHz
	}
	for _, b := range res.SocketBandwidthBytesPerCyc {
		rep.SocketBandwidthGBs = append(rep.SocketBandwidthGBs, b*opts.CPU.FrequencyGHz)
	}
	for _, label := range []string{StageEmbedding, StageBottom, StageTop, StageSMTPair, StageInference} {
		if v := res.MeanPhaseCycles(label); v > 0 {
			rep.StageCycles[label] = v
		}
	}
	if check.Enabled {
		check.Assert(check.Finite(rep.BatchLatencyCycles) && check.Finite(rep.BatchLatencyMs) &&
			check.Finite(rep.ThroughputBatchesPerSec) && check.Finite(rep.AvgLoadLatency) &&
			check.Finite(rep.BandwidthGBs) && check.Finite(rep.BandwidthUtilization),
			"core: non-finite report for %s/%v/%v", rep.ModelName, rep.Scheme, rep.Hotness)
	}
	return rep, nil
}

// EmbeddingStageCycles returns the per-batch embedding time: the explicit
// embedding phase when present, otherwise the SMT pair phase (where the
// embedding thread dominates).
func (r Report) EmbeddingStageCycles() float64 {
	if v, ok := r.StageCycles[StageEmbedding]; ok {
		return v
	}
	return r.StageCycles[StageSMTPair]
}

// Speedup returns base's latency divided by r's (how much faster r is).
func (r Report) Speedup(base Report) float64 {
	if r.BatchLatencyCycles == 0 {
		return 0
	}
	return base.BatchLatencyCycles / r.BatchLatencyCycles
}
