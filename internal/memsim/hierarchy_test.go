package memsim

import (
	"testing"
)

// smallParams builds a downsized hierarchy for fast tests: L1 1 KiB, L2
// 4 KiB, L3 16 KiB.
func smallParams() MemParams {
	return MemParams{
		L1:   CacheConfig{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, LatencyCyc: 5},
		L2:   CacheConfig{Name: "L2", SizeBytes: 4 << 10, Ways: 4, LatencyCyc: 14},
		L3:   CacheConfig{Name: "L3", SizeBytes: 16 << 10, Ways: 8, LatencyCyc: 50},
		DRAM: DRAMConfig{BaseLatencyCyc: 200, PeakBandwidthBytesPerCyc: 58, QueueSensitivity: 1},
	}
}

func newTestHier(hwpf bool) *Hierarchy {
	p := smallParams()
	h := NewHierarchy(p, NewShared(p))
	h.HWPrefetchEnabled = hwpf
	return h
}

func TestColdLoadGoesToDRAM(t *testing.T) {
	h := newTestHier(false)
	r := h.Access(0, 0x10000, KindLoad)
	if r.Level != LevelDRAM {
		t.Fatalf("cold load hit %v", r.Level)
	}
	if r.Latency != 50+200 {
		t.Fatalf("cold latency = %d", r.Latency)
	}
}

func TestLoadFillsAllLevels(t *testing.T) {
	h := newTestHier(false)
	h.Access(0, 0x10000, KindLoad)
	// A much later second access hits L1 at nominal latency.
	r := h.Access(10_000, 0x10000, KindLoad)
	if r.Level != LevelL1 || r.Latency != 5 {
		t.Fatalf("second access: %+v", r)
	}
}

func TestInFlightDemandLoadPaysResidual(t *testing.T) {
	h := newTestHier(false)
	h.Access(0, 0x10000, KindLoad) // fill completes at 250
	r := h.Access(100, 0x10000, KindLoad)
	if !r.InFlightHit {
		t.Fatal("expected in-flight hit")
	}
	if r.Latency != 150 {
		t.Fatalf("residual latency = %d, want 150", r.Latency)
	}
}

func TestSoftwarePrefetchHidesLatency(t *testing.T) {
	h := newTestHier(false)
	pr := h.Access(0, 0x20000, KindPrefetchL1)
	if pr.Level != LevelDRAM {
		t.Fatalf("prefetch sourced from %v", pr.Level)
	}
	// Demand load after the fill completes: full hit.
	r := h.Access(1000, 0x20000, KindLoad)
	if r.Level != LevelL1 || r.Latency != 5 {
		t.Fatalf("demand after prefetch: %+v", r)
	}
	if h.L1.Stats.PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d", h.L1.Stats.PrefetchHits)
	}
}

func TestLatePrefetchPartiallyHides(t *testing.T) {
	h := newTestHier(false)
	h.Access(0, 0x20000, KindPrefetchL1) // ready at 250
	r := h.Access(200, 0x20000, KindLoad)
	if r.Latency != 50 {
		t.Fatalf("partially hidden latency = %d, want 50", r.Latency)
	}
}

func TestPrefetchHintLevels(t *testing.T) {
	h := newTestHier(false)
	h.Access(0, 0x30000, KindPrefetchL2)
	if h.L1.Contains(0x30000) {
		t.Fatal("T1 hint filled L1")
	}
	if !h.L2.Contains(0x30000) || !h.shared.L3.Contains(0x30000) {
		t.Fatal("T1 hint missed L2/L3")
	}
	h.Access(0, 0x40000, KindPrefetchL3)
	if h.L2.Contains(0x40000) {
		t.Fatal("T2 hint filled L2")
	}
	if !h.shared.L3.Contains(0x40000) {
		t.Fatal("T2 hint missed L3")
	}
}

func TestPrefetchToResidentLineIsNoop(t *testing.T) {
	h := newTestHier(false)
	h.Access(0, 0x50000, KindLoad)
	dramFills := h.shared.DRAM.Stats.LineFills
	r := h.Access(500, 0x50000, KindPrefetchL1)
	if r.Latency != 0 {
		t.Fatalf("prefetch of resident line cost %d", r.Latency)
	}
	if h.shared.DRAM.Stats.LineFills != dramFills {
		t.Fatal("no-op prefetch touched DRAM")
	}
}

func TestHWNextLinePrefetcherCoversSequentialStream(t *testing.T) {
	on := newTestHier(true)
	off := newTestHier(false)
	var latOn, latOff int64
	now := int64(0)
	// Sequential walk, far apart in time so fills complete.
	for i := 0; i < 64; i++ {
		a := Addr(0x100000 + i*LineSize)
		latOn += on.Access(now, a, KindLoad).Latency
		latOff += off.Access(now, a, KindLoad).Latency
		now += 1000
	}
	if latOn >= latOff {
		t.Fatalf("HW prefetch did not help sequential stream: on=%d off=%d", latOn, latOff)
	}
}

func TestHWPrefetcherUselessOnRandomStream(t *testing.T) {
	on := newTestHier(true)
	off := newTestHier(false)
	var latOn, latOff int64
	now := int64(0)
	// Strided-random walk: each access in a fresh 4 KiB region.
	for i := 0; i < 64; i++ {
		a := Addr(0x1000000 + uint64(i)*8192*uint64(1+i%7))
		latOn += on.Access(now, a, KindLoad).Latency
		latOff += off.Access(now, a, KindLoad).Latency
		now += 1000
	}
	// Within 5%: hardware prefetching neither helps nor hurts much.
	ratio := float64(latOn) / float64(latOff)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("irregular stream ratio = %.3f", ratio)
	}
}

func TestAvgLoadLatencyCounter(t *testing.T) {
	h := newTestHier(false)
	h.Access(0, 0x1000, KindLoad)      // 250
	h.Access(10_000, 0x1000, KindLoad) // 5
	want := (250.0 + 5.0) / 2
	if got := h.Stats.AvgLoadLatency(); got != want {
		t.Fatalf("avg load latency = %g, want %g", got, want)
	}
}

func TestStoreCountsSeparately(t *testing.T) {
	h := newTestHier(false)
	h.Access(0, 0x1000, KindStore)
	if h.Stats.Stores != 1 || h.Stats.Loads != 0 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestDRAMQueueingLatency(t *testing.T) {
	d := NewDRAM(DRAMConfig{BaseLatencyCyc: 200, PeakBandwidthBytesPerCyc: 58, QueueSensitivity: 1})
	if d.AccessLatency() != 200 {
		t.Fatalf("unloaded latency = %d", d.AccessLatency())
	}
	d.SetUtilization(0.5)
	if got := d.AccessLatency(); got != 400 {
		t.Fatalf("ρ=0.5 latency = %d, want 400", got)
	}
	d.SetUtilization(2.0) // clamped to 0.97
	if got := d.AccessLatency(); got <= 400 || got > 200*40 {
		t.Fatalf("saturated latency = %d", got)
	}
}

func TestSharedL3AcrossHierarchies(t *testing.T) {
	p := smallParams()
	sh := NewShared(p)
	h1 := NewHierarchy(p, sh)
	h2 := NewHierarchy(p, sh)
	h1.Access(0, 0x70000, KindLoad)
	// Constructive sharing: core 2 finds the line in shared L3.
	r := h2.Access(10_000, 0x70000, KindLoad)
	if r.Level != LevelL3 {
		t.Fatalf("second core hit %v, want L3", r.Level)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := newTestHier(true)
	h.Access(0, 0x1000, KindLoad)
	h.Reset()
	if h.Stats.Loads != 0 || h.L1.Contains(0x1000) {
		t.Fatal("reset incomplete")
	}
}
