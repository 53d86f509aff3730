package cluster

// Correlated failure domains and deterministic chaos schedules. The
// stochastic FaultModel (faults.go) injects i.i.d. per-node episodes;
// production fleets additionally fail in *correlated* ways — rack power
// takes a whole failure domain down, a bad deploy slows one, a network
// partition severs traffic between two. ChaosSchedule is the scripted
// counterpart: an ordered list of timed events over rack-like node
// groups (default 1 node = 1 domain) that composes with FaultModel and
// works identically in Simulate and the open event loop.
//
// Determinism: the schedule is static — no RNG, no new seed salt. At
// run start every event is materialized into per-domain outage and
// slowdown windows and per-domain-pair severance windows (a Recover
// event truncates the windows of its domain that are open at its
// instant). Outage windows reach a node's queue through the same
// serve.Queue.Unavailable max-raise path the fault model uses, applied
// in start order by a per-node cursor, so composition with stochastic
// outages is order-independent. Partition severance folds into each
// copy's node-arrival instant at scheduling time (transitShift): a copy
// in flight across a severed domain pair is lost and re-sent when the
// partition heals, exactly like the transport's drop re-sends. All of
// it is a pure function of the config, keeping the byte-identical-at-
// any-worker-count property: nothing here reads mid-window state.
//
// Substitution statement: real chaos tooling (and real incidents) drive
// correlated faults through orchestration APIs with jittered delivery;
// we substitute exact scripted windows so a metastability experiment is
// reproducible bit-for-bit across backends and worker counts.

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"dlrmsim/internal/serve"
)

// ChaosKind names one scheduled chaos event type.
type ChaosKind int

const (
	// DomainOutage holds every queue in the domain shut for the window —
	// rack power loss. In-flight work waits it out unless mitigation
	// gives up first.
	DomainOutage ChaosKind = iota
	// DomainSlowdown multiplies service times in the domain by Factor
	// for the window — a bad deploy, thermal throttling.
	DomainSlowdown
	// Partition severs traffic between two domains for the window:
	// copies in transit across the pair when it opens (or launched into
	// it) are lost and re-sent when it heals.
	Partition
	// Recover ends the target domain's open outage/slowdown windows and
	// any open partition windows involving it at AtMs — a rollback
	// landing before the scheduled window would have closed.
	Recover
)

// String returns the kind's CLI spelling.
func (k ChaosKind) String() string {
	switch k {
	case DomainOutage:
		return "down"
	case DomainSlowdown:
		return "slow"
	case Partition:
		return "part"
	case Recover:
		return "recover"
	default:
		return "invalid"
	}
}

// ChaosEvent is one scheduled event. Domain is the target domain
// (DomainOutage, DomainSlowdown, Recover) or one end of the severed
// pair (Partition, with Peer the other end).
type ChaosEvent struct {
	Kind   ChaosKind
	Domain int
	Peer   int     // Partition only: the other domain
	AtMs   float64 // event instant
	ForMs  float64 // window length (all kinds but Recover)
	Factor float64 // DomainSlowdown only: service-time multiplier ≥ 1
}

// ChaosSchedule scripts correlated failures over node failure domains.
// The zero value injects nothing. Nodes map to Domains contiguous
// groups (node n belongs to domain n·D/N); Domains 0 defaults to one
// domain per node.
type ChaosSchedule struct {
	Domains int
	Events  []ChaosEvent
}

// Active reports whether the schedule injects anything.
func (s ChaosSchedule) Active() bool { return len(s.Events) > 0 }

// validateErrs reports every violation in the schedule. nodes 0 (no
// plan to check against) skips the domain-range checks; every
// structural rule still applies.
func (s *ChaosSchedule) validateErrs(nodes int) []error {
	var errs []error
	if s.Domains < 0 {
		errs = append(errs, fmt.Errorf("cluster: %d chaos domains", s.Domains))
	}
	if nodes > 0 && s.Domains > nodes {
		errs = append(errs, fmt.Errorf("cluster: %d chaos domains exceed %d nodes", s.Domains, nodes))
	}
	if s.Domains != 0 && len(s.Events) == 0 {
		errs = append(errs, fmt.Errorf("cluster: chaos domains %d set without chaos events", s.Domains))
	}
	d := s.Domains
	if d == 0 {
		d = nodes
	}
	prevAt := math.Inf(-1)
	for i, e := range s.Events {
		if !(e.AtMs >= 0) || math.IsInf(e.AtMs, 0) {
			errs = append(errs, fmt.Errorf("cluster: chaos event %d at non-finite or negative instant %g ms", i, e.AtMs))
			continue
		}
		if e.AtMs < prevAt {
			errs = append(errs, fmt.Errorf("cluster: chaos event %d at %g ms out of order (previous %g ms)", i, e.AtMs, prevAt))
		}
		prevAt = e.AtMs
		if e.Kind == Recover {
			if e.ForMs != 0 {
				errs = append(errs, fmt.Errorf("cluster: chaos recover event %d has a window length %g ms", i, e.ForMs))
			}
		} else if !(e.ForMs > 0) || math.IsInf(e.AtMs+e.ForMs, 0) {
			errs = append(errs, fmt.Errorf("cluster: chaos event %d window length %g ms (need finite > 0)", i, e.ForMs))
		}
		if e.Kind == DomainSlowdown {
			if !(e.Factor >= 1) || math.IsInf(e.Factor, 0) {
				errs = append(errs, fmt.Errorf("cluster: chaos slowdown event %d factor %g < 1", i, e.Factor))
			}
		} else if e.Factor != 0 {
			errs = append(errs, fmt.Errorf("cluster: chaos event %d factor %g on a non-slowdown event", i, e.Factor))
		}
		switch e.Kind {
		case DomainOutage, DomainSlowdown, Recover:
			if e.Domain < 0 || (d > 0 && e.Domain >= d) {
				errs = append(errs, fmt.Errorf("cluster: chaos event %d domain %d outside [0,%d)", i, e.Domain, d))
			}
			if e.Peer != 0 {
				errs = append(errs, fmt.Errorf("cluster: chaos event %d peer %d on a non-partition event", i, e.Peer))
			}
		case Partition:
			if e.Domain < 0 || (d > 0 && e.Domain >= d) || e.Peer < 0 || (d > 0 && e.Peer >= d) {
				errs = append(errs, fmt.Errorf("cluster: chaos partition event %d domains (%d,%d) outside [0,%d)", i, e.Domain, e.Peer, d))
			}
			if e.Domain == e.Peer {
				errs = append(errs, fmt.Errorf("cluster: chaos partition event %d severs domain %d from itself", i, e.Domain))
			}
		default:
			errs = append(errs, fmt.Errorf("cluster: chaos event %d has invalid kind %d", i, int(e.Kind)))
		}
	}
	return errs
}

// String renders the schedule in the CLI spec grammar; ParseChaosSchedule
// round-trips it.
func (s ChaosSchedule) String() string {
	var b strings.Builder
	for i, e := range s.Events {
		if i > 0 {
			b.WriteByte(';')
		}
		switch e.Kind {
		case DomainOutage:
			fmt.Fprintf(&b, "down:dom=%d,at=%g,for=%g", e.Domain, e.AtMs, e.ForMs)
		case DomainSlowdown:
			fmt.Fprintf(&b, "slow:dom=%d,at=%g,for=%g,x=%g", e.Domain, e.AtMs, e.ForMs, e.Factor)
		case Partition:
			fmt.Fprintf(&b, "part:a=%d,b=%d,at=%g,for=%g", e.Domain, e.Peer, e.AtMs, e.ForMs)
		case Recover:
			fmt.Fprintf(&b, "recover:dom=%d,at=%g", e.Domain, e.AtMs)
		}
	}
	return b.String()
}

// ParseChaosSchedule parses the CLIs' compact chaos spec: semicolon-
// separated events in schedule order, each `kind:key=value,...`:
//
//	down:dom=D,at=T,for=W      — DomainOutage of domain D
//	slow:dom=D,at=T,for=W,x=F  — DomainSlowdown by factor F
//	part:a=D,b=E,at=T,for=W    — Partition between domains D and E
//	recover:dom=D,at=T         — Recover domain D
//
// An empty spec is the zero (inactive) schedule. Parsing is purely
// syntactic; ChaosSchedule.validateErrs (via Config.Validate) enforces
// the semantic rules, so a parsed-and-validated schedule is runnable.
func ParseChaosSchedule(spec string) (ChaosSchedule, error) {
	var s ChaosSchedule
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, ev := range strings.Split(spec, ";") {
		ev = strings.TrimSpace(ev)
		kindStr, rest, ok := strings.Cut(ev, ":")
		if !ok {
			return ChaosSchedule{}, fmt.Errorf("cluster: chaos event %q missing ':' (want kind:key=value,...)", ev)
		}
		var e ChaosEvent
		switch kindStr {
		case "down":
			e.Kind = DomainOutage
		case "slow":
			e.Kind = DomainSlowdown
		case "part":
			e.Kind = Partition
		case "recover":
			e.Kind = Recover
		default:
			return ChaosSchedule{}, fmt.Errorf("cluster: unknown chaos event kind %q (want down, slow, part, or recover)", kindStr)
		}
		var seen struct{ dom, a, b, at, dur, x bool }
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return ChaosSchedule{}, fmt.Errorf("cluster: chaos event %q field %q missing '='", ev, kv)
			}
			var dup bool
			var err error
			switch {
			case k == "dom" && e.Kind != Partition:
				dup, seen.dom = seen.dom, true
				e.Domain, err = strconv.Atoi(v)
			case k == "a" && e.Kind == Partition:
				dup, seen.a = seen.a, true
				e.Domain, err = strconv.Atoi(v)
			case k == "b" && e.Kind == Partition:
				dup, seen.b = seen.b, true
				e.Peer, err = strconv.Atoi(v)
			case k == "at":
				dup, seen.at = seen.at, true
				e.AtMs, err = strconv.ParseFloat(v, 64)
			case k == "for" && e.Kind != Recover:
				dup, seen.dur = seen.dur, true
				e.ForMs, err = strconv.ParseFloat(v, 64)
			case k == "x" && e.Kind == DomainSlowdown:
				dup, seen.x = seen.x, true
				e.Factor, err = strconv.ParseFloat(v, 64)
			default:
				return ChaosSchedule{}, fmt.Errorf("cluster: chaos %s event %q has unknown key %q", kindStr, ev, k)
			}
			if err != nil {
				return ChaosSchedule{}, fmt.Errorf("cluster: chaos event %q value %q for %q: %v", ev, v, k, err)
			}
			if dup {
				return ChaosSchedule{}, fmt.Errorf("cluster: chaos event %q repeats key %q", ev, k)
			}
		}
		var missing string
		switch {
		case !seen.at:
			missing = "at"
		case e.Kind == Partition && !seen.a:
			missing = "a"
		case e.Kind == Partition && !seen.b:
			missing = "b"
		case e.Kind != Partition && !seen.dom:
			missing = "dom"
		case e.Kind != Recover && !seen.dur:
			missing = "for"
		case e.Kind == DomainSlowdown && !seen.x:
			missing = "x"
		}
		if missing != "" {
			return ChaosSchedule{}, fmt.Errorf("cluster: chaos %s event %q missing key %q", kindStr, ev, missing)
		}
		s.Events = append(s.Events, e)
	}
	return s, nil
}

// chaosWin is one materialized window: [start, end), with the slowdown
// factor for DomainSlowdown windows.
type chaosWin struct {
	start, end, factor float64
}

// chaosRaw is one window during materialization, keyed by domain (out,
// slow) or pair index (part).
type chaosRaw struct {
	kind uint8 // 0 outage, 1 slowdown, 2 partition
	key  int32
	win  chaosWin
}

// chaosState is one run's materialized schedule: per-domain window
// lists in CSR layout (windows of domain d at out[outIdx[d]:outIdx[d+1]],
// start-sorted because events are AtMs-ordered), a per-node cursor for
// the outage→queue application, and the fault-clear instant the
// recovery metrics measure from. Lives in the run arena and recycles
// all of its slices.
type chaosState struct {
	domains int
	nodeDom []int32
	out     []chaosWin
	outIdx  []int32
	slow    []chaosWin
	slowIdx []int32
	part    []chaosWin
	partIdx []int32
	pairs   [][2]int32 // normalized (lo, hi) severed pairs
	// outApplied is the per-node count of outage windows already pushed
	// onto the node's queue; like faults.track.applied it relies on each
	// node seeing its submissions in arrival order.
	outApplied []int32
	clearMs    float64 // last window end: the fault-clear instant

	raws []chaosRaw // build scratch
}

// init materializes a validated schedule for a fleet. Recover events
// truncate the open windows of their domain in event order; zero-length
// (fully recovered) windows are dropped.
func (cs *chaosState) init(sched *ChaosSchedule, nodes int) {
	d := sched.Domains
	if d <= 0 {
		d = nodes
	}
	cs.domains = d
	cs.nodeDom = arenaSlice(&cs.nodeDom, nodes)
	for n := range cs.nodeDom {
		cs.nodeDom[n] = int32(int64(n) * int64(d) / int64(nodes))
	}
	cs.pairs = cs.pairs[:0]
	cs.raws = cs.raws[:0]
	for _, e := range sched.Events {
		switch e.Kind {
		case DomainOutage:
			cs.raws = append(cs.raws, chaosRaw{kind: 0, key: int32(e.Domain),
				win: chaosWin{start: e.AtMs, end: e.AtMs + e.ForMs}})
		case DomainSlowdown:
			cs.raws = append(cs.raws, chaosRaw{kind: 1, key: int32(e.Domain),
				win: chaosWin{start: e.AtMs, end: e.AtMs + e.ForMs, factor: e.Factor}})
		case Partition:
			lo, hi := int32(e.Domain), int32(e.Peer)
			if lo > hi {
				lo, hi = hi, lo
			}
			key := int32(-1)
			for i, p := range cs.pairs {
				if p[0] == lo && p[1] == hi {
					key = int32(i)
					break
				}
			}
			if key < 0 {
				key = int32(len(cs.pairs))
				cs.pairs = append(cs.pairs, [2]int32{lo, hi})
			}
			cs.raws = append(cs.raws, chaosRaw{kind: 2, key: key,
				win: chaosWin{start: e.AtMs, end: e.AtMs + e.ForMs}})
		case Recover:
			dom := int32(e.Domain)
			for i := range cs.raws {
				r := &cs.raws[i]
				hit := r.key == dom
				if r.kind == 2 {
					p := cs.pairs[r.key]
					hit = p[0] == dom || p[1] == dom
				}
				if hit && r.win.start <= e.AtMs && e.AtMs < r.win.end {
					r.win.end = e.AtMs
				}
			}
		}
	}
	live := cs.raws[:0]
	cs.clearMs = 0
	for _, r := range cs.raws {
		if r.win.end > r.win.start {
			live = append(live, r)
			if r.win.end > cs.clearMs {
				cs.clearMs = r.win.end
			}
		}
	}
	cs.raws = live
	// Group by (kind, key); the stable sort preserves the event order,
	// which is start order, so each CSR segment stays start-sorted.
	slices.SortStableFunc(cs.raws, func(a, b chaosRaw) int {
		if a.kind != b.kind {
			return int(a.kind) - int(b.kind)
		}
		return int(a.key) - int(b.key)
	})
	cs.outIdx = arenaSlice(&cs.outIdx, d+1)
	cs.slowIdx = arenaSlice(&cs.slowIdx, d+1)
	cs.partIdx = arenaSlice(&cs.partIdx, len(cs.pairs)+1)
	for i := range cs.outIdx {
		cs.outIdx[i] = 0
	}
	for i := range cs.slowIdx {
		cs.slowIdx[i] = 0
	}
	for i := range cs.partIdx {
		cs.partIdx[i] = 0
	}
	cs.out, cs.slow, cs.part = cs.out[:0], cs.slow[:0], cs.part[:0]
	for _, r := range cs.raws {
		switch r.kind {
		case 0:
			cs.out = append(cs.out, r.win)
			cs.outIdx[r.key+1]++
		case 1:
			cs.slow = append(cs.slow, r.win)
			cs.slowIdx[r.key+1]++
		case 2:
			cs.part = append(cs.part, r.win)
			cs.partIdx[r.key+1]++
		}
	}
	for i := 1; i < len(cs.outIdx); i++ {
		cs.outIdx[i] += cs.outIdx[i-1]
	}
	for i := 1; i < len(cs.slowIdx); i++ {
		cs.slowIdx[i] += cs.slowIdx[i-1]
	}
	for i := 1; i < len(cs.partIdx); i++ {
		cs.partIdx[i] += cs.partIdx[i-1]
	}
	cs.outApplied = arenaSlice(&cs.outApplied, nodes)
	for i := range cs.outApplied {
		cs.outApplied[i] = 0
	}
}

// applyOutages pushes every scheduled outage window of the node's
// domain opening by t onto its queue, in start order — the same
// max-raise Unavailable path the stochastic fault model drives, so the
// two outage sources compose in either order.
func (cs *chaosState) applyOutages(node int, t float64, q *serve.Queue) {
	if cs == nil {
		return
	}
	d := cs.nodeDom[node]
	wins := cs.out[cs.outIdx[d]:cs.outIdx[d+1]]
	for cs.outApplied[node] < int32(len(wins)) && wins[cs.outApplied[node]].start <= t {
		q.Unavailable(wins[cs.outApplied[node]].end)
		cs.outApplied[node]++
	}
}

// slowFactor returns the scheduled service-time multiplier in effect on
// the node's domain at t (the max over overlapping windows; 1 clear).
func (cs *chaosState) slowFactor(node int, t float64) float64 {
	if cs == nil {
		return 1
	}
	d := cs.nodeDom[node]
	f := 1.0
	for _, w := range cs.slow[cs.slowIdx[d]:cs.slowIdx[d+1]] {
		if w.start > t {
			break
		}
		if t < w.end && w.factor > f {
			f = w.factor
		}
	}
	return f
}

// transitShift returns the extra delay (and re-send count) a copy
// departing home's domain for target's domain at depart, with transit
// ms in flight, suffers from scheduled partitions: a copy whose flight
// overlaps a severance window is lost and re-sent when the partition
// heals. Applied to the request leg at scheduling time (the planned
// target's domain — the open loop's drain re-routing does not re-sever).
func (cs *chaosState) transitShift(home, target int, depart, transit float64) (shift float64, resends int) {
	if cs == nil || len(cs.pairs) == 0 {
		return 0, 0
	}
	lo, hi := cs.nodeDom[home], cs.nodeDom[target]
	if lo == hi {
		return 0, 0
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	pair := -1
	for i, p := range cs.pairs {
		if p[0] == lo && p[1] == hi {
			pair = i
			break
		}
	}
	if pair < 0 {
		return 0, 0
	}
	t := depart
	for _, w := range cs.part[cs.partIdx[pair]:cs.partIdx[pair+1]] {
		if t+transit <= w.start {
			break
		}
		if t < w.end {
			shift += w.end - t
			t = w.end
			resends++
		}
	}
	return shift, resends
}

// outageMs returns total scheduled domain-down time over the horizon:
// the per-domain union of outage windows (overlaps merged), clipped to
// [0, horizon], summed across domains — the numerator of the
// DomainAvailability metric.
func (cs *chaosState) outageMs(horizon float64) float64 {
	var total float64
	for d := 0; d < cs.domains; d++ {
		var curS, curE float64
		open := false
		for _, w := range cs.out[cs.outIdx[d]:cs.outIdx[d+1]] {
			s, e := w.start, w.end
			if e > horizon {
				e = horizon
			}
			if e <= s {
				continue
			}
			switch {
			case !open:
				curS, curE, open = s, e, true
			case s <= curE:
				if e > curE {
					curE = e
				}
			default:
				total += curE - curS
				curS, curE = s, e
			}
		}
		if open {
			total += curE - curS
		}
	}
	return total
}
