package cpusim

import (
	"fmt"
	"math"

	"dlrmsim/internal/memsim"
)

// SystemParams configures a multi-core run.
type SystemParams struct {
	Core CoreParams
	Mem  memsim.MemParams
	// Cores is the number of physical cores to instantiate per socket.
	Cores int
	// Sockets is the socket count, 1 or 2; 0 means 1. Each socket has its
	// own LLC and DRAM. On two sockets memory is page-interleaved and a
	// fill homed on the other socket pays memsim.RemotePenaltyCyc and
	// consumes that socket's bandwidth (see memsim.Shared).
	Sockets int
	// BandwidthIterations is how many fixed-point refinements of the DRAM
	// utilization to run (see DESIGN.md §5). 0 means the default of 3.
	BandwidthIterations int
}

// Phase is one stage of a core's pipeline: one stream runs the phase
// single-threaded, two run as SMT siblings (e.g. MP-HT's embedding +
// Bottom-MLP pair). Phases of one core run back to back; different cores
// are independent.
type Phase struct {
	// Label names the phase in results (e.g. "embedding", "bottom-mlp").
	Label string
	// Streams holds 1 or 2 stream factories.
	Streams []StreamFactory
}

// CoreWork is the phased workload for one core.
type CoreWork struct {
	Phases []Phase
}

// PhaseResult reports one executed phase on one core.
type PhaseResult struct {
	Label string
	// Start and End are absolute simulated times; End-Start is the
	// phase's duration on that core.
	Start, End float64
	// Threads holds the per-SMT-context stats for the phase.
	Threads []ThreadResult
}

// CoreRunResult aggregates one core's phased execution.
type CoreRunResult struct {
	// Cycles is the core's total completion time.
	Cycles float64
	// Phases lists per-phase results in execution order.
	Phases []PhaseResult
}

// PhaseCycles returns the summed duration of all phases with the label.
func (c CoreRunResult) PhaseCycles(label string) float64 {
	var total float64
	for _, p := range c.Phases {
		if p.Label == label {
			total += p.End - p.Start
		}
	}
	return total
}

// SystemResult aggregates a multi-core simulation.
type SystemResult struct {
	// Cycles is the completion time of the slowest core.
	Cycles float64
	// PerCore holds each core's result, index-aligned with the work.
	PerCore []CoreRunResult
	// DRAMBytes is the total traffic the run moved from memory.
	DRAMBytes uint64
	// BandwidthBytesPerCyc is realized DRAM bandwidth (bytes/cycle).
	BandwidthBytesPerCyc float64
	// BandwidthUtilization is realized bandwidth over the node's peak
	// (the per-socket peak times the socket count).
	BandwidthUtilization float64
	// SocketBandwidthBytesPerCyc is realized DRAM bandwidth per socket.
	SocketBandwidthBytesPerCyc []float64
	// RemoteFillFraction is the fraction of DRAM fills served by the
	// other socket. DRAM counters do not record the requester, so it is
	// measured only when every worked core sits on socket 0 (then each
	// fill socket 1 served is remote) and is 0 otherwise.
	RemoteFillFraction float64
	// AvgLoadLatency is the demand-load latency averaged over all cores.
	AvgLoadLatency float64
	// L1HitRate, L2HitRate, L3HitRate are demand hit rates aggregated
	// over all cores (and, for L3, all sockets).
	L1HitRate, L2HitRate, L3HitRate float64
	// SWPrefetches counts software prefetch ops issued across cores.
	SWPrefetches uint64
}

// MeanPhaseCycles returns the mean duration of the labeled phase across
// cores that executed it.
func (r SystemResult) MeanPhaseCycles(label string) float64 {
	var total float64
	n := 0
	for _, c := range r.PerCore {
		for _, p := range c.Phases {
			if p.Label == label {
				total += p.End - p.Start
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// MeanCoreCycles returns the mean completion time across active cores —
// the per-batch latency when each core processes one batch.
func (r SystemResult) MeanCoreCycles() float64 {
	if len(r.PerCore) == 0 {
		return 0
	}
	var total float64
	for _, c := range r.PerCore {
		total += c.Cycles
	}
	return total / float64(len(r.PerCore))
}

// System owns the cores and shared memory of one simulated node: one or
// two sockets of params.Cores cores each.
type System struct {
	params  SystemParams
	sockets []*memsim.Shared // a prefix of socketPool
	cores   []*Core          // socket-major: cores[s*params.Cores + i]; a prefix of corePool

	// socketPool and corePool hold every socket and core the System has
	// built, so a Reshape to a smaller node keeps the rest, and their
	// cache arrays, for a later, larger one.
	socketPool []*memsim.Shared
	corePool   []*Core
}

// NewSystem builds a node of params.Sockets sockets with params.Cores
// cores each. It panics on invalid configuration.
func NewSystem(params SystemParams) *System {
	s := &System{}
	s.Reshape(params)
	return s
}

// Reshape rebuilds s in place as NewSystem(params) builds a fresh System.
// Every cache it already holds keeps its line arrays and takes params'
// geometry (see memsim.Cache.Reshape): socket i's LLC serves socket i,
// and core slot i's L1 and L2 serve core i in socket-major order, wired
// to its new socket. Only sockets and cores s has never had are built.
// Reshape empties every cache and counter, and Run resets the rest of
// the state it reads, so a reshaped System is observably fresh. It panics
// on invalid configuration.
func (s *System) Reshape(params SystemParams) {
	if params.Cores < 1 || params.Sockets < 0 || params.Sockets > memsim.MaxSockets {
		panic(fmt.Sprintf("cpusim: %d sockets x %d cores", params.Sockets, params.Cores))
	}
	if err := params.Core.Validate(); err != nil {
		panic(err)
	}
	if params.BandwidthIterations <= 0 {
		params.BandwidthIterations = 3
	}
	n := max(params.Sockets, 1)
	s.params = params
	s.socketPool = memsim.ReshapeSockets(s.socketPool, params.Mem, n)
	s.sockets = s.socketPool[:n]
	for i := 0; i < n*params.Cores; i++ {
		shared := s.sockets[i/params.Cores]
		if i < len(s.corePool) {
			s.corePool[i].reshape(params.Core, params.Mem, shared)
		} else {
			s.corePool = append(s.corePool, NewCore(params.Core, memsim.NewHierarchy(params.Mem, shared)))
		}
	}
	s.cores = s.corePool[:n*params.Cores]
}

// Cores returns the total core count (socket-major indexing).
func (s *System) Cores() int { return len(s.cores) }

// Core returns core i (for counter inspection after a run).
func (s *System) Core(i int) *Core { return s.cores[i] }

// Run simulates the given per-core work to completion. len(work) must not
// exceed the core count; work[i] runs on core i in socket-major order and
// unassigned cores stay idle. Cores interleave earliest-first in simulated
// time, so shared-LLC interactions (constructive and destructive) happen
// in causal order.
//
// DRAM bandwidth is resolved by fixed point, one utilization ρ per socket:
// the run is simulated with guessed utilizations, each socket's realized
// utilization is measured, and the guesses are updated (damped) until the
// iteration budget is spent or every socket's guess converges. The final
// iteration's state is returned.
func (s *System) Run(work []CoreWork) SystemResult {
	if len(work) > len(s.cores) {
		panic(fmt.Sprintf("cpusim: %d work items for %d cores", len(work), len(s.cores)))
	}
	var rho [memsim.MaxSockets]float64
	var res SystemResult
	for iter := 0; iter < s.params.BandwidthIterations; iter++ {
		for i, shared := range s.sockets {
			shared.Reset()
			shared.DRAM.SetUtilization(rho[i])
		}
		res = s.runOnce(work)
		if res.Cycles <= 0 {
			break
		}
		converged := true
		for i, bw := range res.SocketBandwidthBytesPerCyc {
			realized := bw / s.params.Mem.DRAM.PeakBandwidthBytesPerCyc
			if math.Abs(realized-rho[i]) >= 0.01 {
				converged = false
			}
			rho[i] = (rho[i] + realized) / 2
		}
		if converged {
			break
		}
	}
	return res
}

type coreState struct {
	core       *Core
	work       CoreWork
	phase      int
	phaseStart float64
	res        CoreRunResult
	done       bool
}

func (cs *coreState) beginPhase() {
	ph := cs.work.Phases[cs.phase]
	streams := make([]Stream, len(ph.Streams))
	for i, f := range ph.Streams {
		streams[i] = f()
	}
	cs.core.BeginAt(cs.phaseStart, streams...)
}

func (cs *coreState) finishPhase() {
	ph := cs.work.Phases[cs.phase]
	cr := cs.core.Collect()
	end := cr.Cycles
	if end < cs.phaseStart {
		end = cs.phaseStart
	}
	cs.res.Phases = append(cs.res.Phases, PhaseResult{
		Label: ph.Label, Start: cs.phaseStart, End: end, Threads: cr.Threads,
	})
	cs.phase++
	if cs.phase < len(cs.work.Phases) {
		cs.phaseStart = end
		cs.beginPhase()
		return
	}
	cs.res.Cycles = end
	cs.done = true
}

func (s *System) runOnce(work []CoreWork) SystemResult {
	states := make([]*coreState, 0, len(work))
	for i, w := range work {
		core := s.cores[i]
		core.Hierarchy().Reset()
		cs := &coreState{core: core, work: w}
		if len(w.Phases) == 0 {
			cs.done = true
		} else {
			cs.beginPhase()
		}
		states = append(states, cs)
	}

	runStates(states)

	res := SystemResult{PerCore: make([]CoreRunResult, len(states))}
	var loads, l1h, l1m, l2h, l2m, swpf uint64
	var latSum int64
	for i, cs := range states {
		res.PerCore[i] = cs.res
		if cs.res.Cycles > res.Cycles {
			res.Cycles = cs.res.Cycles
		}
		hs := cs.core.Hierarchy().Stats
		loads += hs.Loads
		latSum += hs.LoadLatencySum
		swpf += hs.SWPrefetches
		l1h += cs.core.Hierarchy().L1.Stats.DemandHits
		l1m += cs.core.Hierarchy().L1.Stats.DemandMisses
		l2h += cs.core.Hierarchy().L2.Stats.DemandHits
		l2m += cs.core.Hierarchy().L2.Stats.DemandMisses
	}
	var fills, l3h, l3m uint64
	for _, shared := range s.sockets {
		res.DRAMBytes += shared.DRAM.Stats.BytesRead
		fills += shared.DRAM.Stats.LineFills
		l3h += shared.L3.Stats.DemandHits
		l3m += shared.L3.Stats.DemandMisses
	}
	res.SocketBandwidthBytesPerCyc = make([]float64, len(s.sockets))
	if res.Cycles > 0 {
		res.BandwidthBytesPerCyc = float64(res.DRAMBytes) / res.Cycles
		peak := s.params.Mem.DRAM.PeakBandwidthBytesPerCyc * float64(len(s.sockets))
		res.BandwidthUtilization = res.BandwidthBytesPerCyc / peak
		for i, shared := range s.sockets {
			res.SocketBandwidthBytesPerCyc[i] = float64(shared.DRAM.Stats.BytesRead) / res.Cycles
		}
		// Work only on socket 0's cores: every fill socket 1 served is
		// remote.
		if len(s.sockets) == 2 && len(work) <= s.params.Cores && fills > 0 {
			res.RemoteFillFraction = float64(s.sockets[1].DRAM.Stats.LineFills) / float64(fills)
		}
	}
	if loads > 0 {
		res.AvgLoadLatency = float64(latSum) / float64(loads)
	}
	res.L1HitRate = rate(l1h, l1m)
	res.L2HitRate = rate(l2h, l2m)
	res.SWPrefetches = swpf
	res.L3HitRate = rate(l3h, l3m)
	return res
}

// runStates drives a set of per-core phase state machines to completion
// with earliest-first interleaving. The earliest core is stepped in a
// burst until its clock passes the runner-up: cores only interact through
// the shared LLC and DRAM, so sub-runner-up reordering is unobservable,
// and the burst removes the per-op scheduling scan.
func runStates(states []*coreState) {
	for {
		var best *coreState
		bestT, nextT := math.Inf(1), math.Inf(1)
		for _, cs := range states {
			if cs.done {
				continue
			}
			t, ok := cs.core.NextTime()
			if !ok {
				continue
			}
			if t < bestT {
				best, bestT, nextT = cs, t, bestT
			} else if t < nextT {
				nextT = t
			}
		}
		if best == nil {
			break
		}
		// Multi-line bursts inside Step suspend at the same horizon the
		// per-op check below enforces, so a gather cannot overrun the
		// runner-up core by more than one line.
		best.core.burstLimit = nextT
		for {
			best.core.StepEarliest()
			for !best.done && best.core.Done() {
				best.finishPhase()
			}
			if best.done {
				break
			}
			if t, ok := best.core.NextTime(); !ok || t > nextT {
				break
			}
		}
	}
}

func rate(h, m uint64) float64 {
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
