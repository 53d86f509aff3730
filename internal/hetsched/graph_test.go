package hetsched

import (
	"math"
	"strings"
	"testing"
)

func TestGraphValidate(t *testing.T) {
	cases := []struct {
		name string
		g    Graph
		want []string // substrings that must all appear in the error
	}{
		{"empty", Graph{}, []string{"empty phase graph"}},
		{"bad kind", Graph{Phases: []Phase{{Kind: NumKinds}}}, []string{"invalid kind"}},
		{"negative work", Graph{Phases: []Phase{{Kind: MLP, WorkUs: -1}}}, []string{"negative work"}},
		{"out of range dep", Graph{Phases: []Phase{{Kind: MLP, Deps: []int{3}}}}, []string{"out-of-range"}},
		{"negative dep", Graph{Phases: []Phase{{Kind: MLP, Deps: []int{-1}}}}, []string{"out-of-range"}},
		{"self dep", Graph{Phases: []Phase{{Kind: MLP, Deps: []int{0}}}}, []string{"depends on itself"}},
		{"two cycle", Graph{Phases: []Phase{
			{Kind: Gather, Deps: []int{1}},
			{Kind: MLP, Deps: []int{0}},
		}}, []string{"dependency cycle"}},
		{"collect all", Graph{Phases: []Phase{
			{Kind: NumKinds, WorkUs: -2},
			{Kind: MLP, Deps: []int{9}},
		}}, []string{"invalid kind", "negative work", "out-of-range"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.g.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %v", tc.want)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("Validate() error %q missing %q", err, w)
				}
			}
		})
	}
}

func TestDLRMGraphShape(t *testing.T) {
	g := DLRMGraph(40, 30)
	if err := g.Validate(); err != nil {
		t.Fatalf("DLRMGraph invalid: %v", err)
	}
	if len(g.Phases) != 4 {
		t.Fatalf("DLRMGraph has %d phases, want 4", len(g.Phases))
	}
	if got := g.TotalWorkUs(); got != 70 {
		t.Errorf("TotalWorkUs() = %g, want 70 (gather 40 + dense 30)", got)
	}
	w := g.KindWorkUs()
	if w[Gather] != 40 {
		t.Errorf("gather work = %g, want 40", w[Gather])
	}
	if w[Interact]+w[MLP] != 30 {
		t.Errorf("dense work = %g, want 30", w[Interact]+w[MLP])
	}
	n := g.KindCounts()
	if n[Gather] != 1 || n[Interact] != 1 || n[MLP] != 2 {
		t.Errorf("KindCounts() = %v, want [1 1 2]", n)
	}
	// The top MLP must transitively depend on both roots.
	if len(g.Phases[2].Deps) != 2 || len(g.Phases[3].Deps) != 1 || g.Phases[3].Deps[0] != 2 {
		t.Errorf("unexpected dependency structure: %+v", g.Phases)
	}
}

// graphFromBytes decodes an arbitrary byte string into a (frequently
// invalid) phase graph: per phase one kind byte (invalid kind 3 included),
// one work byte biased slightly negative (0x80, 0x7F and 0x81 decode to
// NaN, +Inf and -Inf, as FuzzClusterConfig's do), and two dependency
// nibbles that can point out of range, at the phase itself, or forward
// (building cycles). The fuzz target feeds this to Validate and Simulate.
func graphFromBytes(data []byte) Graph {
	if len(data) == 0 {
		return Graph{}
	}
	n := int(data[0])%6 + 1
	data = data[1:]
	g := Graph{Phases: make([]Phase, n)}
	get := func(j int) byte {
		if j < len(data) {
			return data[j]
		}
		return 0
	}
	work := func(b byte) float64 { // [-8, 247], NaN, ±Inf
		switch b {
		case 0x80:
			return math.NaN()
		case 0x7F:
			return math.Inf(1)
		case 0x81:
			return math.Inf(-1)
		default:
			return float64(int(b) - 8)
		}
	}
	for i := 0; i < n; i++ {
		p := Phase{
			Kind:   PhaseKind(get(i*4) % 4),
			WorkUs: work(get(i*4 + 1)),
		}
		for _, db := range []byte{get(i*4 + 2), get(i*4 + 3)} {
			if db%4 != 0 {
				p.Deps = append(p.Deps, int(db%16)-4)
			}
		}
		g.Phases[i] = p
	}
	return g
}

// FuzzPhaseGraph checks that Validate is exactly the schedulability gate:
// any graph it accepts simulates to completion without tripping a runtime
// invariant, and any graph it rejects is refused by Simulate too.
func FuzzPhaseGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 20, 0, 0})                                        // single valid gather
	f.Add([]byte{4, 0, 20, 0, 0, 2, 30, 0, 0, 1, 10, 5, 6, 2, 40, 7, 0}) // diamond-ish
	f.Add([]byte{2, 0, 10, 6, 0, 1, 10, 5, 0})                           // mutual deps → cycle
	f.Add([]byte{3, 3, 200, 15, 1, 1, 0, 9, 9})                          // invalid kind + junk deps
	f.Add([]byte{6, 1, 0, 0, 0, 2, 0, 0, 0})                             // zero-work phases
	f.Add([]byte{0, 0, 0x80, 0, 0})                                      // NaN gather work
	f.Add([]byte{0, 2, 0x7F, 0, 0})                                      // +Inf MLP work
	f.Add([]byte{1, 0, 0x81, 0, 0, 2, 30, 5, 0})                         // -Inf gather work
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		verr := g.Validate()

		// Pick fleet and policy from the input so odd graphs also exercise
		// the specialist/partition/steal paths.
		var sum byte
		for _, b := range data {
			sum += b
		}
		mix := Mixes[int(sum)%len(Mixes)]
		devs, err := NewMix(mix)
		if err != nil {
			t.Fatalf("NewMix(%q): %v", mix, err)
		}
		cfg := Config{
			Graph:          g,
			Devices:        devs,
			Policy:         AllPolicies[int(sum/16)%len(AllPolicies)],
			MeanArrivalMs:  0.05,
			Requests:       8,
			WarmupRequests: -1,
			JitterFrac:     float64(sum%3) * 0.2,
			Seed:           uint64(sum) + 1,
		}
		res, serr := Simulate(cfg)
		if verr != nil {
			if serr == nil {
				t.Fatalf("graph rejected by Validate (%v) but Simulate accepted it", verr)
			}
			return
		}
		if serr != nil {
			t.Fatalf("graph accepted by Validate but Simulate refused: %v", serr)
		}
		if res.P99 < 0 || res.Mean < 0 {
			t.Fatalf("negative latency summary: %+v", res)
		}
	})
}
