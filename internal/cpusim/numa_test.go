package cpusim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dlrmsim/internal/memsim"
)

// numaParams is testSystemParams on a 2-socket node.
func numaParams(coresPer int) SystemParams {
	p := testSystemParams(coresPer)
	p.Sockets = 2
	return p
}

func TestNUMARemoteAccessesCostMore(t *testing.T) {
	// One core on socket 0 scanning page-interleaved memory (stride of
	// one page plus a line, so consecutive accesses alternate home
	// sockets): ~half the fills are remote, so the run must be slower
	// than a UMA system and must report remote traffic.
	pageLoads := func() Stream {
		ops := make([]Op, 400)
		for i := range ops {
			ops[i] = Op{Kind: OpLoad, Addr: memsim.Addr(i) * (4096 + 64)}
		}
		return NewSliceStream(ops)
	}
	work := []CoreWork{singleWork(func() Stream { return pageLoads() })}
	numa := NewSystem(numaParams(1)).Run(work)
	flat := NewSystem(testSystemParams(1)).Run(work)
	if numa.Cycles <= flat.Cycles {
		t.Fatalf("NUMA run (%g) not slower than UMA (%g)", numa.Cycles, flat.Cycles)
	}
	if numa.RemoteFillFraction < 0.3 || numa.RemoteFillFraction > 0.7 {
		t.Fatalf("remote fill fraction = %g, want ~0.5 under page interleaving", numa.RemoteFillFraction)
	}
	if numa.AvgLoadLatency <= flat.AvgLoadLatency {
		t.Fatalf("NUMA load latency %g not above UMA %g", numa.AvgLoadLatency, flat.AvgLoadLatency)
	}
}

func TestNUMATwoSocketsDoubleBandwidth(t *testing.T) {
	// Symmetric load on both sockets: aggregate bandwidth should exceed
	// one socket's run.
	mk := func(n int) []CoreWork {
		w := make([]CoreWork, n)
		for i := range w {
			w[i] = singleWork(loadFactory(400, memsim.Addr(i)<<32))
		}
		return w
	}
	two := NewSystem(numaParams(2)).Run(mk(4))
	var bwTwo float64
	for _, b := range two.SocketBandwidthBytesPerCyc {
		bwTwo += b
	}
	one := NewSystem(testSystemParams(2)).Run(mk(2))
	if bwTwo <= one.BandwidthBytesPerCyc {
		t.Fatalf("2-socket bandwidth %.2f not above 1-socket %.2f", bwTwo, one.BandwidthBytesPerCyc)
	}
	if len(two.PerCore) != 4 {
		t.Fatalf("per-core results = %d", len(two.PerCore))
	}
	if math.Abs(bwTwo-two.BandwidthBytesPerCyc) > 1e-9*bwTwo {
		t.Fatalf("socket bandwidths sum to %g, node total %g", bwTwo, two.BandwidthBytesPerCyc)
	}
	// Both sockets' cores ran, so the requester split is unknown.
	if two.RemoteFillFraction != 0 {
		t.Fatalf("spread run reported %g remote fills", two.RemoteFillFraction)
	}
}

func TestNUMAPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSystem(numaParams(0)) },
		func() { NewSystem(numaParams(1)).Run(make([]CoreWork, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

// TestNewSystemSocketRange: NewSystem builds 0 (one socket), 1 and 2
// sockets and panics, naming the socket count, outside that range.
func TestNewSystemSocketRange(t *testing.T) {
	for _, sockets := range []int{0, 1, 2} {
		p := numaParams(1)
		p.Sockets = sockets
		if got, want := NewSystem(p).Cores(), max(sockets, 1); got != want {
			t.Errorf("%d sockets built %d cores, want %d", sockets, got, want)
		}
	}
	for _, sockets := range []int{-1, 3} {
		p := numaParams(1)
		p.Sockets = sockets
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sockets") {
					t.Errorf("%d sockets: panic %v, want a socket-count panic", sockets, r)
				}
			}()
			NewSystem(p)
		}()
	}
}

func TestNUMADeterministic(t *testing.T) {
	run := func() SystemResult {
		return NewSystem(numaParams(2)).Run([]CoreWork{
			singleWork(loadFactory(100, 0)),
			singleWork(loadFactory(100, 1<<32)),
			singleWork(loadFactory(100, 2<<32)),
		})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("NUMA run not deterministic")
	}
}
