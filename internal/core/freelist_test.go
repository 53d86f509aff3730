package core

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/memsim"
	"dlrmsim/internal/pin"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

// clearIdleSystems empties the free list, so a test starts cold.
func clearIdleSystems() {
	sysMu.Lock()
	sysFree = nil
	sysMu.Unlock()
}

// idleSystems snapshots the free list, oldest first.
func idleSystems() []*cpusim.System {
	sysMu.Lock()
	defer sysMu.Unlock()
	return slices.Clone(sysFree)
}

// runCountingBuild runs o on one goroutine and reports whether the run
// built its System: a reused System was on the free list before the run,
// and either way the run parks its System as the newest entry.
func runCountingBuild(t *testing.T, o Options) (Report, bool) {
	t.Helper()
	before := idleSystems()
	r := mustRun(t, o)
	after := idleSystems()
	return r, !slices.Contains(before, after[len(after)-1])
}

// freshReports runs each cell on a System built for it alone.
func freshReports(t *testing.T, cells []Options) []Report {
	t.Helper()
	out := make([]Report, len(cells))
	for i, o := range cells {
		clearIdleSystems()
		out[i] = mustRun(t, o)
	}
	clearIdleSystems()
	return out
}

// TestReusedSystemGatesHWPFPerRun alternates baseline and w/o HW-PF on one
// System. The HW-PF gate is set per run, so every run after the first
// reuses the System the previous one released, and each report must
// still equal, field for field, the scheme's run on a fresh System.
func TestReusedSystemGatesHWPFPerRun(t *testing.T) {
	schemes := []Scheme{Baseline, NoHWPF, Baseline, NoHWPF}
	cells := make([]Options, len(schemes))
	for i, s := range schemes {
		cells[i] = testOptions(s, trace.MediumHot)
	}
	want := freshReports(t, cells)
	var got []Report
	for i, o := range cells {
		r, built := runCountingBuild(t, o)
		if built != (i == 0) {
			t.Fatalf("run %d (%v): built a System %v, want %v", i, o.Scheme, built, i == 0)
		}
		got = append(got, r)
	}
	pin.Near(t, got, want, 0)
}

// freeListCells returns 18 small embedding-only cells over 12 System
// shapes (three LLC sizes × one or two cores × one or two sockets;
// Sockets 0 and 1 build the same node), alternating baseline and w/o
// HW-PF. Cell i has LLC 2<<(i%3) MB, 1+i/3%2 cores per socket and i/6
// sockets. Cells 12–14 spread their one core per socket over both
// sockets; cells 15–17 work socket 0's two cores against interleaved
// memory.
func freeListCells() []Options {
	cells := make([]Options, 18)
	for i := range cells {
		cpu := platform.CascadeLake()
		cpu.Mem.L3.SizeBytes = int64(2<<(i%3)) << 20
		cells[i] = Options{
			Model: dlrm.RM2Small().Scaled(20), CPU: cpu, Hotness: trace.MediumHot,
			BatchSize: 8, Cores: 1 + i/3%2, Sockets: i / 6 % 3, Seed: 1,
			BandwidthIterations: 1, EmbeddingOnly: true,
		}
		if i >= 12 && i < 15 {
			cells[i].ActiveCores = 2
		}
		if i%2 == 1 {
			cells[i].Scheme = NoHWPF
		}
	}
	return cells
}

// reshapeWalk orders freeListCells so that consecutive runs on one
// System cover every reshape: forward, then back. Forward, the LLC grows
// (2 → 4 → 8 MB) and shrinks (8 → 2 MB), cores go 1 → 2 (cell 3) and
// 2 → 1 (cell 6), sockets go 1 → 2 (cell 12, whose second core is the
// first socket's second core of cell 11, rewired), and HW-PF flips on
// every step; back, sockets go 2 → 1 (cell 11).
func reshapeWalk() []int {
	n := len(freeListCells())
	walk := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		walk = append(walk, i)
	}
	for i := n - 1; i >= 0; i-- {
		walk = append(walk, i)
	}
	return walk
}

// TestOneSystemServesEveryCell walks the cells on one goroutine through
// every kind of reshape. The walk builds exactly one System, and every
// report equals the same cell's run on a fresh System.
func TestOneSystemServesEveryCell(t *testing.T) {
	cells := freeListCells()
	fresh := freshReports(t, cells)
	var got, want []Report
	builds := 0
	for _, i := range reshapeWalk() {
		r, built := runCountingBuild(t, cells[i])
		if built {
			builds++
		}
		got, want = append(got, r), append(want, fresh[i])
	}
	if builds != 1 {
		t.Fatalf("the walk built %d Systems, want 1", builds)
	}
	pin.Near(t, got, want, 0)
}

// TestReshapedSystemAllocatesNoCacheArrays guards against System churn
// coming back: after one warm pass over the cells, a second pass on one
// goroutine reshapes the warm System for every run and must allocate, per
// run, under a tenth of the smallest cell's LLC line arrays (4 bytes of
// tag, 8 of ready time, 4 of recency and 1 bit of prefetch flag per
// line). One rebuilt LLC, or one new System, per run would exceed it.
func TestReshapedSystemAllocatesNoCacheArrays(t *testing.T) {
	cells := freeListCells()
	smallest := int64(math.MaxInt64)
	for _, o := range cells {
		lines := memsim.NewCache(o.CPU.Mem.L3).CapacityLines()
		smallest = min(smallest, lines*16+lines/8)
	}
	clearIdleSystems()
	for _, o := range cells {
		mustRun(t, o)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range cells {
		mustRun(t, o)
	}
	runtime.ReadMemStats(&after)
	perRun := int64(after.TotalAlloc-before.TotalAlloc) / int64(len(cells))
	t.Logf("%d bytes allocated per warm run; smallest LLC line arrays %d bytes", perRun, smallest)
	if perRun >= smallest/10 {
		t.Fatalf("a warm run allocates %d bytes, want under %d (a tenth of the smallest LLC's line arrays)", perRun, smallest/10)
	}
}

// TestIdleSystemsBoundedUnderConcurrency runs the mixed cells on 4
// goroutines at once, each in its own order. The free list never holds
// more than maxIdleSystems, and every report equals the run of the same
// cell on a fresh System.
func TestIdleSystemsBoundedUnderConcurrency(t *testing.T) {
	cells := freeListCells()
	want := freshReports(t, cells)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cells {
				i := (k*5 + g*7) % len(cells)
				r, err := Run(cells[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(r, want[i]) {
					t.Errorf("goroutine %d, cell %d: report differs from the fresh-System run", g, i)
				}
				if n := len(idleSystems()); n > maxIdleSystems {
					t.Errorf("goroutine %d: %d idle Systems, cap %d", g, n, maxIdleSystems)
				}
			}
		}(g)
	}
	wg.Wait()
}
