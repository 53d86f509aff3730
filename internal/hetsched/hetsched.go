// Package hetsched is a heterogeneous multi-phase scheduling laboratory —
// the generalization of the paper's MP-HT trick. The paper colocates a
// memory-bound phase (embedding gather) with a compute-bound phase (MLP)
// on sibling SMT threads; that is a two-device special case of a broader
// question: given requests that are *typed phase graphs* (gather →
// interaction → MLP, with per-phase dependencies) and a fleet of
// heterogeneous device classes, which placement policy wins where?
//
// The package models three device classes:
//
//   - CPU cores, calibrated from the single-node timing simulator (phase
//     work is expressed in CPU-µs, derived from cluster.TimingFromReport's
//     per-lookup and dense-stage costs), optionally paired into SMT
//     siblings with a same-kind contention penalty — running two
//     memory-bound phases on one physical core contends for the load
//     ports, while a memory+compute mix barely does (the paper's Fig. 11
//     insight);
//   - a GPU-like high-throughput device with batching economics — a fixed
//     per-batch launch cost plus a small per-item marginal cost, so large
//     batches amortize the launch and a lone phase is expensive; and
//   - a PIM-like in-memory device (UpDLRM-style) that serves gathers at
//     near-DRAM-bank bandwidth but cannot run MLPs at all.
//
// Three placement policies route ready phases to devices: static
// phase-affinity routing, earliest-finish-time dispatch, and affinity
// with idle-device work stealing. On a two-thread SMT fleet the affinity
// policy degenerates to exactly the paper's MP-HT colocation.
//
// Everything is a deterministic discrete-event simulation: all randomness
// is derived statelessly from Config.Seed via stats.SplitSeed, so results
// are bit-identical regardless of worker count or scheduling order — the
// same contract the experiment runner's -workers guarantee rests on.
package hetsched

import (
	"errors"
	"fmt"

	"dlrmsim/internal/check"
)

// PhaseKind types the work a phase performs; the scheduler routes on it.
type PhaseKind uint8

const (
	// Gather is the memory-bound embedding-lookup phase.
	Gather PhaseKind = iota
	// Interact is the feature-interaction phase (pairwise dots, concat).
	Interact
	// MLP is a compute-bound dense phase (bottom or top MLP).
	MLP

	// NumKinds bounds PhaseKind for capability masks and cost tables.
	NumKinds = 3
)

func (k PhaseKind) String() string {
	switch k {
	case Gather:
		return "gather"
	case Interact:
		return "interact"
	case MLP:
		return "mlp"
	}
	return fmt.Sprintf("PhaseKind(%d)", uint8(k))
}

// Phase is one node of a request's typed phase graph.
type Phase struct {
	// Kind selects the capability/cost row on every device.
	Kind PhaseKind
	// WorkUs is the phase's work in CPU-microseconds: the time a lone
	// reference CPU core takes to run it. Devices scale it by their
	// per-kind speed factor.
	WorkUs float64
	// Deps are indices (into Graph.Phases) of phases that must complete
	// before this one may start.
	Deps []int
}

// Graph is a typed phase DAG; every request instantiates one copy.
type Graph struct {
	Phases []Phase
}

// Validate reports every structural violation at once: empty graphs,
// out-of-range or self dependencies, invalid kinds, negative work, and
// cycles (via Kahn's algorithm). A graph that validates is schedulable:
// repeatedly completing ready phases reaches every phase.
func (g Graph) Validate() error {
	var errs []error
	if len(g.Phases) == 0 {
		errs = append(errs, fmt.Errorf("hetsched: empty phase graph"))
	}
	for i, p := range g.Phases {
		if p.Kind >= NumKinds {
			errs = append(errs, fmt.Errorf("hetsched: phase %d has invalid kind %d", i, p.Kind))
		}
		if !check.NonNeg(p.WorkUs) {
			errs = append(errs, fmt.Errorf("hetsched: phase %d has non-finite or negative work %g", i, p.WorkUs))
		}
		for _, d := range p.Deps {
			if d < 0 || d >= len(g.Phases) {
				errs = append(errs, fmt.Errorf("hetsched: phase %d depends on out-of-range phase %d", i, d))
			} else if d == i {
				errs = append(errs, fmt.Errorf("hetsched: phase %d depends on itself", i))
			}
		}
	}
	if len(errs) == 0 {
		if !g.acyclic() {
			errs = append(errs, fmt.Errorf("hetsched: phase graph has a dependency cycle"))
		}
	}
	return errors.Join(errs...)
}

// acyclic runs Kahn's algorithm; it assumes deps are in range.
func (g Graph) acyclic() bool {
	n := len(g.Phases)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for i, p := range g.Phases {
		for _, d := range p.Deps {
			succ[d] = append(succ[d], i)
			indeg[i]++
		}
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, s := range succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return done == n
}

// TotalWorkUs sums the graph's work across phases.
func (g Graph) TotalWorkUs() float64 {
	var sum float64
	for _, p := range g.Phases {
		sum += p.WorkUs
	}
	return sum
}

// KindWorkUs sums the graph's work per phase kind.
func (g Graph) KindWorkUs() [NumKinds]float64 {
	var w [NumKinds]float64
	for _, p := range g.Phases {
		if p.Kind < NumKinds {
			w[p.Kind] += p.WorkUs
		}
	}
	return w
}

// KindCounts tallies the graph's phases per kind. Presence checks must
// use counts, not work: a zero-work phase still needs a capable device.
func (g Graph) KindCounts() [NumKinds]int {
	var n [NumKinds]int
	for _, p := range g.Phases {
		if p.Kind < NumKinds {
			n[p.Kind]++
		}
	}
	return n
}

// DLRMGraph builds the standard DLRM inference phase graph from per-phase
// CPU costs: the embedding gather and the bottom MLP are independent
// roots, the interaction joins them, and the top MLP consumes the
// interaction — the dependency structure every DLRM paper draws.
//
//	0 gather ─┐
//	          ├→ 2 interact → 3 top MLP
//	1 bottom ─┘
//
// gatherUs is the full embedding-stage cost of one request on the
// reference CPU; denseUs is the dense-stage remainder, split 25% bottom
// MLP, 15% interaction, 60% top MLP (the paper's Fig. 1 proportions for
// the RM2 family).
func DLRMGraph(gatherUs, denseUs float64) Graph {
	return Graph{Phases: []Phase{
		{Kind: Gather, WorkUs: gatherUs},
		{Kind: MLP, WorkUs: 0.25 * denseUs},
		{Kind: Interact, WorkUs: 0.15 * denseUs, Deps: []int{0, 1}},
		{Kind: MLP, WorkUs: 0.60 * denseUs, Deps: []int{2}},
	}}
}
