package hetsched

import (
	"errors"
	"fmt"
	"strings"

	"dlrmsim/internal/check"
)

// DeviceClass is the coarse hardware family a device belongs to; the
// affinity policy and the per-class utilization report route on it.
type DeviceClass uint8

const (
	// CPUClass is a general-purpose core: runs every phase kind at the
	// reference speed (phase work is calibrated in CPU-µs).
	CPUClass DeviceClass = iota
	// GPUClass is a high-throughput batching device: a fixed per-batch
	// launch cost plus a small per-item marginal cost, so large batches
	// amortize the launch and a lone phase is expensive.
	GPUClass
	// PIMClass is an in-memory gather engine (UpDLRM-style): near-bank
	// bandwidth for embedding gathers, incapable of dense phases.
	PIMClass

	// NumClasses bounds DeviceClass for per-class accounting.
	NumClasses = 3
)

func (c DeviceClass) String() string {
	switch c {
	case CPUClass:
		return "cpu"
	case GPUClass:
		return "gpu"
	case PIMClass:
		return "pim"
	}
	return fmt.Sprintf("DeviceClass(%d)", uint8(c))
}

// DeviceSpec describes one device of the fleet. The service time of a
// batch B of same-kind phases is
//
//	FixedUs[kind] + Σ_{p∈B} Speed[kind]·p.WorkUs
//
// stretched by the SMT contention factor and the lognormal jitter draw.
// Speed[k] == 0 means the device cannot run kind k at all.
type DeviceSpec struct {
	// Class selects the hardware family (affects affinity and reporting).
	Class DeviceClass
	// Name labels the device in traces and errors ("cpu0", "gpu0"…).
	// Assigned by Fleet construction when empty.
	Name string
	// Speed[k] is the time multiplier versus the reference CPU for kind
	// k: 1 = CPU speed, 0.25 = 4× faster, 0 = incapable.
	Speed [NumKinds]float64
	// FixedUs[k] is the per-batch fixed cost for kind k (dispatch,
	// kernel launch, DMA setup). Charged once per batch, so MaxBatch > 1
	// amortizes it.
	FixedUs [NumKinds]float64
	// MaxBatch is the largest number of same-kind phases served in one
	// batch (0 or 1 = no batching).
	MaxBatch int
	// HoldUs is the batching window: a device whose queue holds fewer
	// than MaxBatch phases waits up to HoldUs after the first enqueue
	// before launching, trading latency for amortization. 0 launches
	// immediately with whatever is queued ("natural" batching only).
	HoldUs float64
	// SMTSibling is the index of this device's SMT sibling thread in the
	// fleet, or -1 when the device is a full core/device of its own.
	// Siblings contend: a phase starting while the sibling is mid-phase
	// runs slower by SMTSameKind (both phases the same kind — fighting
	// over one port) or SMTCrossKind (a memory+compute mix — the paper's
	// MP-HT colocation regime, nearly free).
	SMTSibling int
	// SMTSameKind and SMTCrossKind are the contention multipliers
	// (≥ 1; 0 means "default": 2.0 same-kind, 1.08 cross-kind — the
	// paper's SMT asymmetry between like and unlike phase pairs).
	SMTSameKind, SMTCrossKind float64
}

// Default SMT contention factors: two copies of the same phase kind on
// one physical core fight over the same resource — gathers thrash the
// shared load ports and fill buffers, MLPs the FMA units — and each runs
// about half speed, so colocating likes buys nothing; a memory-bound +
// compute-bound mix barely contends. That asymmetry is the entire reason
// MP-HT colocation works.
const (
	defaultSMTSameKind  = 2.0
	defaultSMTCrossKind = 1.08
)

func (d DeviceSpec) can(k PhaseKind) bool { return d.Speed[k] > 0 }

func (d DeviceSpec) maxBatch() int {
	if d.MaxBatch < 1 {
		return 1
	}
	return d.MaxBatch
}

func (d DeviceSpec) smtFactors() (same, cross float64) {
	same, cross = d.SMTSameKind, d.SMTCrossKind
	if same == 0 {
		same = defaultSMTSameKind
	}
	if cross == 0 {
		cross = defaultSMTCrossKind
	}
	return same, cross
}

// validate reports every violation of one device spec (collect-all).
func (d DeviceSpec) validate(i, fleet int) error {
	var errs []error
	if d.Class >= NumClasses {
		errs = append(errs, fmt.Errorf("hetsched: device %d has invalid class %d", i, d.Class))
	}
	capable := false
	for k := 0; k < NumKinds; k++ {
		if !check.NonNeg(d.Speed[k]) {
			errs = append(errs, fmt.Errorf("hetsched: device %d has non-finite or negative %s speed %g", i, PhaseKind(k), d.Speed[k]))
		}
		if !check.NonNeg(d.FixedUs[k]) {
			errs = append(errs, fmt.Errorf("hetsched: device %d has non-finite or negative %s fixed cost %g", i, PhaseKind(k), d.FixedUs[k]))
		}
		if d.Speed[k] > 0 {
			capable = true
		}
	}
	if !capable {
		errs = append(errs, fmt.Errorf("hetsched: device %d can run no phase kind", i))
	}
	if d.MaxBatch < 0 {
		errs = append(errs, fmt.Errorf("hetsched: device %d has negative max batch %d", i, d.MaxBatch))
	}
	if !check.NonNeg(d.HoldUs) {
		errs = append(errs, fmt.Errorf("hetsched: device %d has non-finite or negative hold window %g", i, d.HoldUs))
	}
	if d.HoldUs > 0 && d.maxBatch() == 1 {
		errs = append(errs, fmt.Errorf("hetsched: device %d holds %g µs for batches but MaxBatch is 1", i, d.HoldUs))
	}
	if d.SMTSibling < -1 || d.SMTSibling >= fleet {
		errs = append(errs, fmt.Errorf("hetsched: device %d SMT sibling %d out of range", i, d.SMTSibling))
	} else if d.SMTSibling == i {
		errs = append(errs, fmt.Errorf("hetsched: device %d is its own SMT sibling", i))
	}
	if !check.NonNeg(d.SMTSameKind) || (d.SMTSameKind > 0 && d.SMTSameKind < 1) {
		errs = append(errs, fmt.Errorf("hetsched: device %d SMT same-kind factor %g (want 0 or finite >= 1)", i, d.SMTSameKind))
	}
	if !check.NonNeg(d.SMTCrossKind) || (d.SMTCrossKind > 0 && d.SMTCrossKind < 1) {
		errs = append(errs, fmt.Errorf("hetsched: device %d SMT cross-kind factor %g (want 0 or finite >= 1)", i, d.SMTCrossKind))
	}
	return errors.Join(errs...)
}

// CPUDevice is a reference core: every kind at speed 1, a small fixed
// dispatch cost, no batching.
func CPUDevice() DeviceSpec {
	return DeviceSpec{
		Class:      CPUClass,
		Speed:      [NumKinds]float64{Gather: 1, Interact: 1, MLP: 1},
		FixedUs:    [NumKinds]float64{Gather: 2, Interact: 2, MLP: 2},
		SMTSibling: -1,
	}
}

// GPUDevice is the high-throughput batching device, parameterized off
// Jain et al.'s GPU inference-envelope observations: dense phases run
// ~8× the CPU's speed and interactions ~2×, but every batch pays a
// ~35 µs launch+transfer cost, so throughput comes from amortization.
// Gathers run at 0.9 — the GPU *can* gather, but host-side rows arrive
// over the interconnect, so it is no faster than the CPU and far worse
// than PIM.
func GPUDevice() DeviceSpec {
	return DeviceSpec{
		Class:      GPUClass,
		Speed:      [NumKinds]float64{Gather: 0.9, Interact: 0.5, MLP: 0.125},
		FixedUs:    [NumKinds]float64{Gather: 35, Interact: 35, MLP: 35},
		MaxBatch:   32,
		SMTSibling: -1,
	}
}

// PIMDevice is the in-memory gather engine, parameterized off UpDLRM's
// real-world UPMEM measurements: embedding gathers at ~4× effective
// DRAM bandwidth (near-bank parallelism), a tiny per-command cost, and
// no dense capability at all — the MLP speed is 0, which the policies
// must respect.
func PIMDevice() DeviceSpec {
	return DeviceSpec{
		Class:      PIMClass,
		Speed:      [NumKinds]float64{Gather: 0.25},
		FixedUs:    [NumKinds]float64{Gather: 3},
		SMTSibling: -1,
	}
}

// LittleCPUDevice is an efficiency core: the full capability set of a
// CPU at a third of the speed. Fleets mixing big and little cores are
// where speed-blind placement (static affinity, greedy stealing) pays
// for mispricing: a heavy MLP on a little core takes 3× as long as
// queueing briefly for a big one.
func LittleCPUDevice() DeviceSpec {
	d := CPUDevice()
	for k := range d.Speed {
		d.Speed[k] = 3
	}
	return d
}

// SMTPair returns two CPU threads sharing one physical core: each is a
// full-speed CPU device, but concurrent same-kind phases contend (the
// defaultSMT* factors). Affinity routing on exactly this fleet *is* the
// paper's MP-HT colocation.
func SMTPair() []DeviceSpec {
	t0, t1 := CPUDevice(), CPUDevice()
	t0.SMTSibling, t1.SMTSibling = 1, 0
	return []DeviceSpec{t0, t1}
}

// Mixes are the named fleets the CLI and the experiments sweep.
//
//	cpu1      one CPU core (the serial reference)
//	smt2      two SMT sibling threads on one core — the MP-HT special case
//	cpu4      four independent CPU cores
//	biglittle two full-speed cores + two 3×-slower efficiency cores
//	cpu2gpu1  two CPU cores + one batching GPU
//	hetero    two CPU cores + one GPU + two PIM gather engines
var Mixes = []string{"cpu1", "smt2", "cpu4", "biglittle", "cpu2gpu1", "hetero"}

// NewMix builds one of the named fleets. Device names are assigned
// class-indexed ("cpu0", "gpu0", "pim1").
func NewMix(name string) ([]DeviceSpec, error) {
	var specs []DeviceSpec
	switch name {
	case "cpu1":
		specs = []DeviceSpec{CPUDevice()}
	case "smt2":
		specs = SMTPair()
	case "cpu4":
		specs = []DeviceSpec{CPUDevice(), CPUDevice(), CPUDevice(), CPUDevice()}
	case "biglittle":
		specs = []DeviceSpec{CPUDevice(), CPUDevice(), LittleCPUDevice(), LittleCPUDevice()}
	case "cpu2gpu1":
		specs = []DeviceSpec{CPUDevice(), CPUDevice(), GPUDevice()}
	case "hetero":
		specs = []DeviceSpec{CPUDevice(), CPUDevice(), GPUDevice(), PIMDevice(), PIMDevice()}
	default:
		return nil, fmt.Errorf("hetsched: unknown device mix %q (have %s)", name, strings.Join(Mixes, ", "))
	}
	counts := [NumClasses]int{}
	for i := range specs {
		c := specs[i].Class
		specs[i].Name = fmt.Sprintf("%s%d", c, counts[c])
		counts[c]++
	}
	return specs, nil
}
