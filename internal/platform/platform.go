// Package platform defines the CPU configurations the paper evaluates:
// the primary Cascade Lake 6240R testbed (Table 3) and the four additional
// parts of Fig. 16 (Skylake, Ice Lake, Sapphire Rapids, Zen 3).
//
// The microarchitectural knobs follow DESIGN.md §5: the instruction window
// scales each part's implicit memory-level parallelism (the paper
// attributes ICL/SPR's stronger baselines to 58% / 129% wider windows),
// while the fill-buffer-like MLP caps and the prefetch-queue depth govern
// how much software prefetching can add on top.
package platform

import (
	"errors"
	"fmt"

	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/memsim"
)

// CPU bundles everything the simulator needs to model one platform.
type CPU struct {
	// Name is the short tag used in figures (CSL, SKL, ...).
	Name string
	// FullName is the marketing part name.
	FullName string
	// Cores is the physical core count used in "multi-core" runs.
	Cores int
	// FrequencyGHz converts simulated cycles to wall-clock time.
	FrequencyGHz float64
	// Core holds the timing-model parameters.
	Core cpusim.CoreParams
	// Mem holds the cache/DRAM geometry.
	Mem memsim.MemParams
	// FlopsPerCycle is the effective fp32 throughput of the SIMD units.
	FlopsPerCycle float64
	// TunedPFDist and TunedPFBlocks are the per-platform optimal
	// software-prefetch settings the paper reports (§6.4).
	TunedPFDist   int
	TunedPFBlocks int
}

// Validate reports every problem with the platform description at once:
// core knobs, memory geometry, clock, and tuning defaults.
func (c CPU) Validate() error {
	var errs []error
	if c.Name == "" {
		errs = append(errs, fmt.Errorf("platform: empty name"))
	}
	if c.Cores < 1 {
		errs = append(errs, fmt.Errorf("platform: %s: %d cores", c.Name, c.Cores))
	}
	if c.FrequencyGHz <= 0 {
		errs = append(errs, fmt.Errorf("platform: %s: non-positive frequency %g GHz", c.Name, c.FrequencyGHz))
	}
	if c.FlopsPerCycle <= 0 {
		errs = append(errs, fmt.Errorf("platform: %s: non-positive FLOPs/cycle %g", c.Name, c.FlopsPerCycle))
	}
	if c.TunedPFDist < 0 || c.TunedPFBlocks < 0 {
		errs = append(errs, fmt.Errorf("platform: %s: negative tuned prefetch knobs (%d, %d)",
			c.Name, c.TunedPFDist, c.TunedPFBlocks))
	}
	if err := c.Core.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.Mem.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// CyclesToMs converts simulated cycles to milliseconds on this part.
func (c CPU) CyclesToMs(cycles float64) float64 {
	return cycles / (c.FrequencyGHz * 1e9) * 1e3
}

// bw converts GB/s to bytes per core cycle at the given frequency.
func bw(gbs, ghz float64) float64 { return gbs * 1e9 / (ghz * 1e9) }

// CascadeLake returns the paper's primary testbed: Xeon Gold 6240R
// (Table 3): 24 cores/socket, 2.4 GHz, 32 KiB L1D, 1 MiB L2, 35.75 MiB
// L3, DDR4-2933 at 140 GB/s/socket.
func CascadeLake() CPU {
	ghz := 2.4
	return CPU{
		Name:         "CSL",
		FullName:     "Intel Xeon Gold 6240R (Cascade Lake)",
		Cores:        24,
		FrequencyGHz: ghz,
		Core: cpusim.CoreParams{
			IssueWidth:       4,
			WindowSize:       224,
			DemandMLP:        7,
			FillBuffers:      13,
			PipelinedLatency: 6,
		},
		Mem: memsim.MemParams{
			L1:   memsim.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 5},
			L2:   memsim.CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, LatencyCyc: 14},
			L3:   memsim.CacheConfig{Name: "L3", SizeBytes: 35_750_000, Ways: 11, LatencyCyc: 50},
			DRAM: memsim.DRAMConfig{BaseLatencyCyc: 220, PeakBandwidthBytesPerCyc: bw(140, ghz), QueueSensitivity: 1},
		},
		FlopsPerCycle: 32,
		TunedPFDist:   4,
		TunedPFBlocks: 8,
	}
}

// Skylake returns the Xeon Gold 6136 configuration (Fig. 16): an older
// part with less cache and bandwidth than CSL but the same window.
func Skylake() CPU {
	ghz := 3.0
	return CPU{
		Name:         "SKL",
		FullName:     "Intel Xeon Gold 6136 (Skylake)",
		Cores:        24,
		FrequencyGHz: ghz,
		Core: cpusim.CoreParams{
			IssueWidth:       4,
			WindowSize:       224,
			DemandMLP:        7,
			FillBuffers:      13,
			PipelinedLatency: 6,
		},
		Mem: memsim.MemParams{
			L1:   memsim.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 5},
			L2:   memsim.CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, LatencyCyc: 14},
			L3:   memsim.CacheConfig{Name: "L3", SizeBytes: 24_750_000, Ways: 11, LatencyCyc: 48},
			DRAM: memsim.DRAMConfig{BaseLatencyCyc: 250, PeakBandwidthBytesPerCyc: bw(119, ghz), QueueSensitivity: 1},
		},
		FlopsPerCycle: 32,
		TunedPFDist:   4,
		TunedPFBlocks: 8,
	}
}

// IceLake returns the Ice Lake server configuration (Fig. 16): a 58%
// wider instruction window lifts the baseline's implicit MLP, so the
// tuned prefetch amount drops to 2 lines.
func IceLake() CPU {
	ghz := 2.4
	return CPU{
		Name:         "ICL",
		FullName:     "Intel Xeon Silver 4314 (Ice Lake)",
		Cores:        32,
		FrequencyGHz: ghz,
		Core: cpusim.CoreParams{
			IssueWidth:       5,
			WindowSize:       352,
			DemandMLP:        11,
			FillBuffers:      18,
			PipelinedLatency: 6,
		},
		Mem: memsim.MemParams{
			L1:   memsim.CacheConfig{Name: "L1D", SizeBytes: 48 << 10, Ways: 12, LatencyCyc: 5},
			L2:   memsim.CacheConfig{Name: "L2", SizeBytes: 1280 << 10, Ways: 20, LatencyCyc: 16},
			L3:   memsim.CacheConfig{Name: "L3", SizeBytes: 24 << 20, Ways: 12, LatencyCyc: 52},
			DRAM: memsim.DRAMConfig{BaseLatencyCyc: 230, PeakBandwidthBytesPerCyc: bw(166, ghz), QueueSensitivity: 1},
		},
		FlopsPerCycle: 32,
		TunedPFDist:   4,
		TunedPFBlocks: 2,
	}
}

// SapphireRapids returns the Sapphire Rapids configuration (Fig. 16):
// a 129% wider window than CSL; tuned prefetch amount 2.
func SapphireRapids() CPU {
	ghz := 2.0
	return CPU{
		Name:         "SPR",
		FullName:     "Intel Xeon Platinum 8480+ (Sapphire Rapids)",
		Cores:        56,
		FrequencyGHz: ghz,
		Core: cpusim.CoreParams{
			IssueWidth:       6,
			WindowSize:       512,
			DemandMLP:        14,
			FillBuffers:      22,
			PipelinedLatency: 6,
		},
		Mem: memsim.MemParams{
			L1:   memsim.CacheConfig{Name: "L1D", SizeBytes: 48 << 10, Ways: 12, LatencyCyc: 5},
			L2:   memsim.CacheConfig{Name: "L2", SizeBytes: 2 << 20, Ways: 16, LatencyCyc: 16},
			L3:   memsim.CacheConfig{Name: "L3", SizeBytes: 105 << 20, Ways: 15, LatencyCyc: 56},
			DRAM: memsim.DRAMConfig{BaseLatencyCyc: 240, PeakBandwidthBytesPerCyc: bw(307, ghz), QueueSensitivity: 1},
		},
		FlopsPerCycle: 64,
		TunedPFDist:   4,
		TunedPFBlocks: 2,
	}
}

// Zen3 returns the AMD EPYC 7763 configuration (Fig. 16). The paper notes
// heavy bandwidth contention at full core count; its tuned prefetch
// amount is 4.
func Zen3() CPU {
	ghz := 2.45
	return CPU{
		Name:         "Zen3",
		FullName:     "AMD EPYC 7763 (Zen 3)",
		Cores:        64,
		FrequencyGHz: ghz,
		Core: cpusim.CoreParams{
			IssueWidth:       4,
			WindowSize:       256,
			DemandMLP:        8,
			FillBuffers:      14,
			PipelinedLatency: 6,
		},
		Mem: memsim.MemParams{
			L1:   memsim.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LatencyCyc: 4},
			L2:   memsim.CacheConfig{Name: "L2", SizeBytes: 512 << 10, Ways: 8, LatencyCyc: 12},
			L3:   memsim.CacheConfig{Name: "L3", SizeBytes: 32 << 20, Ways: 16, LatencyCyc: 46},
			DRAM: memsim.DRAMConfig{BaseLatencyCyc: 260, PeakBandwidthBytesPerCyc: bw(204, ghz), QueueSensitivity: 1.2},
		},
		FlopsPerCycle: 32,
		TunedPFDist:   4,
		TunedPFBlocks: 4,
	}
}

// All returns the Fig. 16 platform list in the paper's order.
func All() []CPU {
	return []CPU{Skylake(), CascadeLake(), IceLake(), SapphireRapids(), Zen3()}
}

// ByName resolves a platform tag (case-sensitive short name).
func ByName(name string) (CPU, error) {
	for _, c := range All() {
		if c.Name == name {
			return c, nil
		}
	}
	return CPU{}, fmt.Errorf("platform: unknown CPU %q", name)
}
