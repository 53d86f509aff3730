package core

import (
	"reflect"
	"sync"
	"testing"

	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/dlrm"
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
	out := make([]*cpusim.System, len(sysFree))
	for i, e := range sysFree {
		out[i] = e.sys
	}
	return out
}

// runCountingBuild runs o on one goroutine and reports whether the run
// built its System: a reused System was on the free list before the run,
// and either way the run parks its System as the newest entry.
func runCountingBuild(t *testing.T, o Options) (Report, bool) {
	t.Helper()
	before := idleSystems()
	r := mustRun(t, o)
	after := idleSystems()
	used := after[len(after)-1]
	for _, s := range before {
		if s == used {
			return r, false
		}
	}
	return r, true
}

// TestReusedSystemGatesHWPFPerRun alternates baseline and w/o HW-PF on one
// System. The HW-PF gate is not in the free-list key, so every run after
// the first reuses the System the previous one released, and each report
// must still equal, field for field, the scheme's run on a fresh System.
func TestReusedSystemGatesHWPFPerRun(t *testing.T) {
	fresh := map[Scheme]Report{}
	for _, s := range []Scheme{Baseline, NoHWPF} {
		clearIdleSystems()
		fresh[s] = mustRun(t, testOptions(s, trace.MediumHot))
	}
	clearIdleSystems()
	var got, want []Report
	for i, s := range []Scheme{Baseline, NoHWPF, Baseline, NoHWPF} {
		r, built := runCountingBuild(t, testOptions(s, trace.MediumHot))
		if built != (i == 0) {
			t.Fatalf("run %d (%v): built a System %v, want %v", i, s, built, i == 0)
		}
		got, want = append(got, r), append(want, fresh[s])
	}
	pin.Near(t, got, want, 0)
}

// freeListCells returns 18 small embedding-only cells over 12 free-list
// keys (three LLC sizes × one or two cores × one or two sockets; Sockets
// 0 and 1 share a key), alternating baseline and w/o HW-PF.
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
		if i%2 == 1 {
			cells[i].Scheme = NoHWPF
		}
	}
	return cells
}

// TestIdleSystemsBoundedUnderConcurrency runs the mixed cells on 4
// goroutines at once, each in its own order. The free list never holds
// more than maxIdleSystems, and every report equals the one-goroutine run
// of the same cell.
func TestIdleSystemsBoundedUnderConcurrency(t *testing.T) {
	clearIdleSystems()
	cells := freeListCells()
	want := make([]Report, len(cells))
	for i, o := range cells {
		want[i] = mustRun(t, o)
	}
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
					t.Errorf("goroutine %d, cell %d: report differs from the one-goroutine run", g, i)
				}
				if n := len(idleSystems()); n > maxIdleSystems {
					t.Errorf("goroutine %d: %d idle Systems, cap %d", g, n, maxIdleSystems)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSystemBuildsRepeatAcrossPasses repeats one sequence of cells over
// more keys than the cap on one goroutine. Which Systems the list holds
// after a pass is a function of the sequence, so every pass after the
// first builds the same number of Systems.
func TestSystemBuildsRepeatAcrossPasses(t *testing.T) {
	clearIdleSystems()
	cells := freeListCells()
	var builds []int
	for pass := 0; pass < 3; pass++ {
		n := 0
		for _, o := range cells {
			if _, built := runCountingBuild(t, o); built {
				n++
			}
		}
		builds = append(builds, n)
	}
	t.Logf("Systems built per pass: %v", builds)
	if builds[0] != 12 || builds[1] != builds[2] {
		t.Fatalf("Systems built per pass %v: want 12, one per key, then equal counts", builds)
	}
}
