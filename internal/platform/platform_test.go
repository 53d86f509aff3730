package platform

import (
	"math"
	"testing"
)

func TestAllPlatformsValidate(t *testing.T) {
	for _, c := range All() {
		if err := c.Core.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.Cores < 1 || c.FrequencyGHz <= 0 || c.FlopsPerCycle <= 0 {
			t.Errorf("%s: bad top-level params", c.Name)
		}
		if c.TunedPFDist < 1 || c.TunedPFBlocks < 1 {
			t.Errorf("%s: missing tuned prefetch settings", c.Name)
		}
	}
}

func TestCascadeLakeMatchesTable3(t *testing.T) {
	c := CascadeLake()
	if c.Cores != 24 {
		t.Errorf("cores = %d", c.Cores)
	}
	if c.FrequencyGHz != 2.4 {
		t.Errorf("frequency = %g", c.FrequencyGHz)
	}
	if c.Mem.L1.SizeBytes != 32<<10 || c.Mem.L1.LatencyCyc != 5 {
		t.Errorf("L1 = %+v", c.Mem.L1)
	}
	if c.Mem.L2.SizeBytes != 1<<20 {
		t.Errorf("L2 = %+v", c.Mem.L2)
	}
	// 35.75 MB L3 (decimal MB per Intel specs).
	if math.Abs(float64(c.Mem.L3.SizeBytes)-35.75e6) > 1e6 {
		t.Errorf("L3 = %d", c.Mem.L3.SizeBytes)
	}
	// 140 GB/s at 2.4 GHz ≈ 58.3 B/cyc.
	if math.Abs(c.Mem.DRAM.PeakBandwidthBytesPerCyc-58.33) > 0.5 {
		t.Errorf("bandwidth = %g B/cyc", c.Mem.DRAM.PeakBandwidthBytesPerCyc)
	}
	if c.TunedPFDist != 4 || c.TunedPFBlocks != 8 {
		t.Errorf("tuned prefetch = %d/%d", c.TunedPFDist, c.TunedPFBlocks)
	}
}

func TestWindowOrderingMatchesPaper(t *testing.T) {
	// The paper: ICL +58%, SPR +129% instruction window vs CSL.
	csl, icl, spr := CascadeLake(), IceLake(), SapphireRapids()
	if r := float64(icl.Core.WindowSize) / float64(csl.Core.WindowSize); math.Abs(r-1.58) > 0.05 {
		t.Errorf("ICL/CSL window ratio = %.2f, want ~1.58", r)
	}
	if r := float64(spr.Core.WindowSize) / float64(csl.Core.WindowSize); math.Abs(r-2.29) > 0.05 {
		t.Errorf("SPR/CSL window ratio = %.2f, want ~2.29", r)
	}
	// Wider windows carry more implicit MLP.
	if !(csl.Core.DemandMLP < icl.Core.DemandMLP && icl.Core.DemandMLP < spr.Core.DemandMLP) {
		t.Error("demand MLP not ordered with window size")
	}
}

func TestTunedPrefetchAmounts(t *testing.T) {
	// §6.4: optimal prefetch amounts are 8 (CSL/SKL), 2 (ICL, SPR), 4 (Zen3).
	want := map[string]int{"CSL": 8, "SKL": 8, "ICL": 2, "SPR": 2, "Zen3": 4}
	for _, c := range All() {
		if c.TunedPFBlocks != want[c.Name] {
			t.Errorf("%s tuned blocks = %d, want %d", c.Name, c.TunedPFBlocks, want[c.Name])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"SKL", "CSL", "ICL", "SPR", "Zen3"} {
		c, err := ByName(name)
		if err != nil || c.Name != name {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("M1"); err == nil {
		t.Fatal("accepted unknown platform")
	}
}

func TestCycleTimeConversions(t *testing.T) {
	c := CascadeLake()
	// 2.4e9 cycles = 1000 ms.
	if ms := c.CyclesToMs(2.4e9); math.Abs(ms-1000) > 1e-9 {
		t.Fatalf("CyclesToMs = %g", ms)
	}
}

func TestPlatformNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range All() {
		if seen[c.Name] {
			t.Fatalf("duplicate platform %s", c.Name)
		}
		seen[c.Name] = true
	}
}
