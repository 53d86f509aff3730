package memsim

import "testing"

func TestLevelAndKindStrings(t *testing.T) {
	want := map[Level]string{LevelL1: "L1D", LevelL2: "L2", LevelL3: "L3", LevelDRAM: "DRAM"}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("Level %d = %q, want %q", l, l.String(), s)
		}
	}
	if Level(99).String() != "invalid" {
		t.Error("bad level not flagged")
	}
	kinds := map[AccessKind]string{
		KindLoad: "load", KindStore: "store",
		KindPrefetchL1: "prefetch.t0", KindPrefetchL2: "prefetch.t1", KindPrefetchL3: "prefetch.t2",
	}
	for k, s := range kinds {
		if k.String() != s {
			t.Errorf("kind %d = %q, want %q", k, k.String(), s)
		}
	}
	if AccessKind(99).String() != "invalid" {
		t.Error("bad kind not flagged")
	}
	if KindLoad.IsPrefetch() || !KindPrefetchL3.IsPrefetch() {
		t.Error("IsPrefetch wrong")
	}
}

func TestAccessorsAndResets(t *testing.T) {
	p := smallParams()
	sh := NewShared(p)
	h := NewHierarchy(p, sh)
	h.HWPrefetchEnabled = true
	if h.Shared() != sh {
		t.Fatal("Shared accessor")
	}
	if h.L1.Config().Name != "L1D" {
		t.Fatal("cache Config accessor")
	}
	d := sh.DRAM
	if d.Config().BaseLatencyCyc != 200 {
		t.Fatal("DRAM Config accessor")
	}
	d.SetUtilization(0.4)
	if d.Utilization() != 0.4 {
		t.Fatal("Utilization accessor")
	}
	d.SetUtilization(-1)
	if d.Utilization() != 0 {
		t.Fatal("negative utilization not clamped")
	}
	d.RecordFill(false)
	d.Reset()
	if d.Stats.LineFills != 0 {
		t.Fatal("DRAM reset")
	}
	h.Access(0, 0x100, KindLoad)
	sh.Reset()
	if sh.L3.Contains(0x100) {
		t.Fatal("shared reset")
	}
	if got := (HierStats{}).AvgLoadLatency(); got != 0 {
		t.Fatalf("idle avg load latency = %g", got)
	}
}

func TestNewDRAMDefaultsAndPanics(t *testing.T) {
	d := NewDRAM(DRAMConfig{BaseLatencyCyc: 100, PeakBandwidthBytesPerCyc: 10})
	if d.Config().QueueSensitivity != 1 {
		t.Fatal("queue sensitivity default")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero-latency DRAM")
		}
	}()
	NewDRAM(DRAMConfig{})
}

func TestNewStridePrefetcherDefaults(t *testing.T) {
	p := NewStridePrefetcher(0, 0)
	if p.Degree != 1 || p.TableSize != 16 {
		t.Fatalf("defaults = %d/%d", p.Degree, p.TableSize)
	}
	p.Reset() // must not panic on empty state
}

func TestNextLinePrefetcherReset(t *testing.T) {
	p := NewNextLinePrefetcher(1)
	p.Reset() // stateless; must not panic
	if got := p.OnDemandMiss(0, nil); len(got) != 1 {
		t.Fatal("reset broke the prefetcher")
	}
}

func TestSharedRemoteHoming(t *testing.T) {
	p := smallParams()
	sockets := NewSockets(p, 2)
	local, remote := sockets[0], sockets[1]
	// Pages interleave: 0x100 is on page 0 (socket 0), 0x1100 on page 1.
	if got := local.memLatency(0x100); got != 200 {
		t.Fatalf("local latency = %d", got)
	}
	// Remote line: remote DRAM latency + penalty.
	if got := local.memLatency(0x1100); got != 200+RemotePenaltyCyc {
		t.Fatalf("remote latency = %d", got)
	}
	// Socket 1 sees the same homing from the other side.
	if got := remote.memLatency(0x1100); got != 200 {
		t.Fatalf("socket 1 local latency = %d", got)
	}
	local.recordFill(0x100, false)
	local.recordFill(0x1100, true)
	if local.DRAM.Stats.LineFills != 1 || remote.DRAM.Stats.LineFills != 1 {
		t.Fatalf("fills recorded wrong: local=%d remote=%d",
			local.DRAM.Stats.LineFills, remote.DRAM.Stats.LineFills)
	}
	if remote.DRAM.Stats.PrefetchFills != 1 {
		t.Fatal("remote prefetch fill not counted")
	}
	// A 1-socket node homes every line locally.
	single := NewSockets(p, 1)[0]
	if got := single.memLatency(0x1100); got != 200 {
		t.Fatalf("1-socket latency = %d", got)
	}
}

func TestNewSocketsRejectsCount(t *testing.T) {
	for _, n := range []int{0, MaxSockets + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSockets(%d) did not panic", n)
				}
			}()
			NewSockets(smallParams(), n)
		}()
	}
}
