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
// run start every event is materialized onto the fault model's per-node
// timelines (faults.go): each domain's outage and slowdown windows are
// copied onto every node in it, beside the stochastic ones, and
// severance windows are kept per domain pair (a Recover event truncates
// the windows of its domain that are open at its instant). One apply
// path then serves both sources, and partition severance folds into
// each copy's node-arrival instant at scheduling time, after the
// transport's drop re-sends: a copy in flight across a severed domain
// pair is lost and re-sent when the partition heals. All of it is a
// pure function of the config, keeping the byte-identical-at-any-
// worker-count property.
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

	"dlrmsim/internal/check"
	"dlrmsim/internal/stats"
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
		if !check.NonNeg(e.AtMs) {
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
		} else if !check.Positive(e.ForMs) || !check.Finite(e.AtMs+e.ForMs) {
			errs = append(errs, fmt.Errorf("cluster: chaos event %d window length %g ms (need finite > 0)", i, e.ForMs))
		}
		if e.Kind == DomainSlowdown {
			if !(e.Factor >= 1 && check.Finite(e.Factor)) {
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

// chaosRaw is one window during materialization, keyed by domain
// (outage, slowdown) or pair index (partition).
type chaosRaw struct {
	kind ChaosKind
	key  int32
	win  stats.Window
}

// severance is one severed domain pair, either way round, with its
// start-ordered windows.
type severance struct {
	a, b int32
	win  []stats.Window
}

// initChaos materializes a validated schedule onto the fault state (an
// inactive one leaves no domains). Recover events truncate the open
// windows of their domain in event order; zero-length (fully recovered)
// windows are dropped. Each domain's outage windows are copied onto
// each of its nodes in start order (events are AtMs-ordered). Its
// slowdown windows are first cut at every window boundary into disjoint
// segments carrying the max factor over each — exactly the factor the
// overlapping windows give at every instant — so one binary search
// answers it.
func (fs *faultState) initChaos(sched *ChaosSchedule, nodes int) {
	fs.domains, fs.clearMs = 0, 0
	fs.pairs, fs.raws, fs.cuts = fs.pairs[:0], fs.raws[:0], fs.cuts[:0]
	if !sched.Active() {
		return
	}
	d := sched.Domains
	if d <= 0 {
		d = nodes
	}
	fs.domains = d
	fs.nodeDom = arenaSlice(&fs.nodeDom, nodes)
	for n := range fs.nodeDom {
		fs.nodeDom[n] = int32(int64(n) * int64(d) / int64(nodes))
	}
	for _, e := range sched.Events {
		if e.Kind == Recover {
			dom := int32(e.Domain)
			for i := range fs.raws {
				r := &fs.raws[i]
				hit := r.key == dom
				if r.kind == Partition {
					hit = fs.pairs[r.key].a == dom || fs.pairs[r.key].b == dom
				}
				if hit && r.win.Start <= e.AtMs && e.AtMs < r.win.End {
					r.win.End = e.AtMs
				}
			}
			continue
		}
		key := int32(e.Domain)
		if e.Kind == Partition {
			if key = int32(fs.pairIndex(key, int32(e.Peer))); key < 0 {
				key = int32(len(fs.pairs))
				fs.pairs = slices.Grow(fs.pairs, 1)[:key+1] // recycles the pair's buffer
				p := &fs.pairs[key]
				p.a, p.b, p.win = int32(e.Domain), int32(e.Peer), p.win[:0]
			}
		}
		fs.raws = append(fs.raws, chaosRaw{e.Kind, key, stats.Window{Start: e.AtMs, End: e.AtMs + e.ForMs, Factor: e.Factor}})
	}
	// spread appends w to one chaos timeline of every node in dom.
	spread := func(dom int32, slow bool, w stats.Window) {
		for n, nd := range fs.nodeDom {
			if nd != dom {
				continue
			}
			tl := &fs.nodes[n].down[srcChaos]
			if slow {
				tl = &fs.nodes[n].slow[srcChaos]
			}
			tl.Win = append(tl.Win, w)
		}
	}
	for _, r := range fs.raws {
		if r.win.End <= r.win.Start {
			continue
		}
		fs.clearMs = max(fs.clearMs, r.win.End)
		switch r.kind {
		case DomainOutage:
			spread(r.key, false, r.win)
		case DomainSlowdown:
			fs.cuts = append(fs.cuts, r.win.Start, r.win.End)
		case Partition:
			fs.pairs[r.key].win = append(fs.pairs[r.key].win, r.win)
		}
	}
	slices.Sort(fs.cuts)
	for i := 0; i+1 < len(fs.cuts); i++ {
		for dom := int32(0); dom < int32(d); dom++ {
			seg := stats.Window{Start: fs.cuts[i], End: fs.cuts[i+1]}
			for _, r := range fs.raws {
				if r.kind == DomainSlowdown && r.key == dom && r.win.Start <= seg.Start && seg.Start < r.win.End {
					seg.Factor = max(seg.Factor, r.win.Factor)
				}
			}
			if seg.Factor > 0 && seg.End > seg.Start { // not a gap or a repeated cut
				spread(dom, true, seg)
			}
		}
	}
}

// pairIndex returns the index of the severed pair {a, b}, or -1.
func (fs *faultState) pairIndex(a, b int32) int {
	for i, p := range fs.pairs {
		if (p.a == a && p.b == b) || (p.a == b && p.b == a) {
			return i
		}
	}
	return -1
}

// severShift returns the extra delay (and re-send count) a copy
// departing home's domain for target's domain at depart, with transit
// ms in flight, suffers from scheduled partitions: a copy whose flight
// overlaps a severance window is lost and re-sent when the partition
// heals. Applied to the request leg at scheduling time (the planned
// target's domain — the open loop's drain re-routing does not re-sever).
func (fs *faultState) severShift(home, target int, depart, transit float64) (shift float64, resends int) {
	pair := fs.pairIndex(fs.nodeDom[home], fs.nodeDom[target]) // never a domain with itself
	if pair < 0 {
		return 0, 0
	}
	t := depart
	for _, w := range fs.pairs[pair].win {
		if t+transit <= w.Start {
			break
		}
		if t < w.End {
			shift += w.End - t
			t = w.End
			resends++
		}
	}
	return shift, resends
}

// outageMs returns total scheduled domain-down time over the horizon:
// the per-domain union of outage windows (overlaps merged), clipped to
// [0, horizon], summed across domains — the numerator of the
// DomainAvailability metric. Domains are contiguous node groups, so
// each is read off its first node's chaos outage list.
func (fs *faultState) outageMs(horizon float64) float64 {
	var total float64
	for n, dom := range fs.nodeDom {
		if n > 0 && dom == fs.nodeDom[n-1] {
			continue
		}
		var curS, curE float64
		open := false
		for _, w := range fs.nodes[n].down[srcChaos].Win {
			s, e := w.Start, w.End
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
