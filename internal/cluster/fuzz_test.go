package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"dlrmsim/internal/check"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// FuzzShardPlan checks the sharding invariant every router decision rests
// on: for any plan geometry, every (table, rank) resolves through the
// rank→row bijection to exactly one owning node in range, every row is
// reached by exactly one rank (the affine map is a permutation), and the
// per-node shard bytes account for every table exactly once.
func FuzzShardPlan(f *testing.F) {
	f.Add(uint8(4), uint16(64), uint8(3), false, uint8(0), uint64(1))
	f.Add(uint8(1), uint16(1), uint8(1), true, uint8(255), uint64(42))
	f.Add(uint8(8), uint16(1023), uint8(16), true, uint8(10), uint64(7))
	f.Fuzz(func(t *testing.T, tables uint8, rows uint16, nodes uint8, rowRange bool, fracByte uint8, seed uint64) {
		model := dlrm.RM2Small()
		model.Tables = int(tables%8) + 1
		model.RowsPerTable = int(rows%2048) + 1
		policy := TableWise
		if rowRange {
			policy = RowRange
		}
		frac := float64(fracByte) / 255
		plan, err := NewPlan(model, int(nodes%16)+1, policy, frac, seed)
		if err != nil {
			t.Skip() // invalid geometry is NewPlan's to reject, not ours
		}
		if plan.HotRows > model.RowsPerTable {
			t.Fatalf("HotRows %d exceeds table height %d", plan.HotRows, model.RowsPerTable)
		}
		for tb := 0; tb < model.Tables; tb++ {
			seen := make([]int, model.RowsPerTable) // rank count per row
			for rank := 0; rank < model.RowsPerTable; rank++ {
				row := plan.perms[tb].Row(rank)
				if row < 0 || int(row) >= model.RowsPerTable {
					t.Fatalf("table %d rank %d: row %d out of range [0,%d)", tb, rank, row, model.RowsPerTable)
				}
				seen[row]++
				owner := plan.Owner(tb, row)
				if owner < 0 || owner >= plan.Nodes {
					t.Fatalf("table %d row %d: owner %d out of range [0,%d)", tb, row, owner, plan.Nodes)
				}
			}
			for row, n := range seen {
				if n != 1 {
					t.Fatalf("table %d row %d reached by %d ranks; want exactly 1", tb, row, n)
				}
			}
		}
		// Owned bytes must cover the whole model exactly once: replicas are
		// accounted separately, so sum(ShardBytes) == all tables' bytes.
		var sum int64
		for _, b := range plan.ShardBytes {
			if b < 0 {
				t.Fatalf("negative shard bytes %d", b)
			}
			sum += b
		}
		if want := model.PerTableBytes() * int64(model.Tables); sum != want {
			t.Fatalf("shards sum to %d bytes, want %d (every row owned exactly once)", sum, want)
		}
	})
}

// FuzzChaosSchedule checks the chaos front door's contract: a spec that
// parses and validates is runnable — materialization and a small
// simulation must not panic — String round-trips through
// ParseChaosSchedule exactly, the materialized window order is
// deterministic (the schedule is static: no RNG anywhere), and the
// disjoint slowdown segments reproduce the max over overlapping windows.
func FuzzChaosSchedule(f *testing.F) {
	f.Add("down:dom=2,at=200,for=150;part:a=0,b=1,at=400,for=100")
	f.Add("slow:dom=0,at=10,for=50,x=4;recover:dom=0,at=30")
	f.Add("part:a=1,b=0,at=0,for=1;part:a=0,b=1,at=2,for=3")
	f.Add("down:dom=0,at=0,for=1e9;down:dom=0,at=5,for=1;recover:dom=0,at=6")
	f.Add("recover:dom=3,at=0")
	f.Add("down:dom=1,at=nan,for=1")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		sched, err := ParseChaosSchedule(spec)
		if err != nil {
			return // syntactically invalid: rejection is the contract
		}
		again, err := ParseChaosSchedule(sched.String())
		if err != nil {
			t.Fatalf("String() %q of a parsed schedule does not re-parse: %v", sched.String(), err)
		}
		// Compare canonical forms, not events: NaN parameters (rejected
		// below by validation) are never equal to themselves.
		if again.String() != sched.String() || len(again.Events) != len(sched.Events) {
			t.Fatalf("round trip through %q lost events:\nwant %+v\ngot  %+v", sched.String(), sched.Events, again.Events)
		}
		const nodes = 4
		if len(sched.validateErrs(nodes)) > 0 {
			return // semantically invalid: Config.Validate's to reject
		}
		a, b := chaosFaults(sched, nodes), chaosFaults(sched, nodes)
		for n := 0; n < nodes; n++ {
			na, nb := &a.nodes[n], &b.nodes[n]
			if !slices.Equal(na.down[srcChaos].Win, nb.down[srcChaos].Win) || !slices.Equal(na.slow[srcChaos].Win, nb.slow[srcChaos].Win) {
				t.Fatal("chaos materialization is not deterministic")
			}
		}
		if !slices.EqualFunc(a.pairs, b.pairs, func(x, y severance) bool {
			return x.a == y.a && x.b == y.b && slices.Equal(x.win, y.win)
		}) {
			t.Fatal("chaos partition materialization is not deterministic")
		}
		for n := 0; n < nodes; n++ {
			slow := &a.nodes[n].slow[srcChaos]
			// Probe every segment boundary and midpoint besides the fixed
			// instants: the disjoint segments must give exactly the max
			// factor over the (recover-truncated) windows open at t.
			probes := []float64{0, 1, 100, 1e6}
			for _, w := range slow.Win {
				probes = append(probes, w.Start, w.End, w.Start+(w.End-w.Start)/2)
			}
			for _, at := range probes {
				want := 1.0
				for _, r := range a.raws {
					if r.kind == DomainSlowdown && r.key == a.nodeDom[n] && r.win.Start <= at && at < r.win.End && r.win.Factor > want {
						want = r.win.Factor
					}
				}
				if fct := factorAt(slow, at); fct != want {
					t.Fatalf("node %d slow factor at %g = %g, want the overlapping windows' max %g", n, at, fct, want)
				}
				shift, resends := a.transit(0, 0, n, 0, at, 1)
				if shift < 0 || resends < 0 || (shift == 0) != (resends == 0) {
					t.Fatalf("transit(0→%d, %g) = (%g, %d)", n, at, shift, resends)
				}
			}
		}
		if out := a.outageMs(1e6); out < 0 {
			t.Fatalf("outageMs = %g < 0", out)
		}
		// A validated schedule must simulate without panicking.
		model := dlrm.RM2Small()
		plan, err := NewPlan(model, nodes, RowRange, 0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Plan:            plan,
			Hotness:         trace.HighHot,
			SamplesPerQuery: 2,
			Timing:          testTiming(),
			Net:             DefaultNetwork(),
			MeanArrivalMs:   0.5,
			Queries:         40,
			WarmupQueries:   -1,
			Seed:            1,
			Chaos:           sched,
		}
		if _, err := Simulate(cfg); err != nil {
			t.Fatalf("validated schedule rejected by Simulate: %v", err)
		}
	})
}

// configFromBytes decodes a config over one of plans from fuzz bytes,
// one byte per knob in declaration order (zero once the data runs out).
// Every numeric knob maps onto a finite range that straddles zero, so
// both sides of every Validate bound are reachable; a zero byte is a zero
// knob, and the float knobs' three extreme bytes are NaN, +Inf and -Inf.
// An odd byte after them turns the closed loop into an open-loop run
// with stream stats over the horizon the closed loop's query count
// spans. The bytes after it set the arrival stream: a model byte (2 is
// an invalid model), then each traffic float knob from eight bytes read
// as its IEEE bits, so the knobs come log-uniformly from the whole
// float64 range, with 0, NaN and ±Inf among them.
func configFromBytes(plans []*Plan, data []byte) Config {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	val := func() float64 { // [-15.75, 15.75], NaN, ±Inf
		switch b := int8(next()); b {
		case math.MinInt8:
			return math.NaN()
		case math.MaxInt8:
			return math.Inf(1)
		case math.MinInt8 + 1:
			return math.Inf(-1)
		default:
			return float64(b) / 8
		}
	}
	small := func(n int) int { return int(int8(next())) % n } // (-n, n)
	cfg := Config{
		Plan:            plans[int(next())%len(plans)],
		Hotness:         trace.HighHot,
		SamplesPerQuery: small(4),
		MeanArrivalMs:   val(),
		Queries:         int(next())%209 - 8, // [-8, 200]
		WarmupQueries:   small(8),
		ServersPerNode:  small(4),
		Timing:          Timing{ColdLookupUs: val(), HotLookupUs: val(), SubRequestUs: val(), DenseMs: val()},
		Net:             Network{LatencyMs: val() / 16, BandwidthGBs: val()},
		JitterFrac:      val() / 8,
		Faults: FaultModel{
			SlowdownEveryMs: val() * 4,
			SlowdownMeanMs:  val(),
			SlowdownFactor:  val(),
			DownEveryMs:     val() * 4,
			DownMeanMs:      val(),
			DropProb:        float64(int8(next())) / 128, // [-1, 1)
			DropDetectMs:    val() / 8,
		},
		Mitigation: Mitigation{
			TimeoutMs:         val(),
			MaxRetries:        small(4),
			HedgeDelayMs:      val(),
			DegradedJoin:      next()&1 == 1,
			RetryBudget:       val() / 8,
			AdaptEpochMs:      val(),
			BreakerTripRate:   val() / 8,
			BreakerMinSamples: small(16),
			BreakerCooldownMs: val(),
		},
		Seed: uint64(next()),
	}
	cfg.Chaos.Domains = small(4)
	if kind := next(); kind != 0 {
		cfg.Chaos.Events = []ChaosEvent{{
			Kind:   ChaosKind(kind%5) - 1, // -1 is an invalid kind
			Domain: small(4),
			Peer:   small(4),
			AtMs:   val() * 16,
			ForMs:  val() * 4,
			Factor: val(),
		}}
	}
	if next()&1 == 1 {
		knob := func() float64 {
			var b [8]byte
			for i := range b {
				b[i] = next()
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		cfg.Open = &OpenLoop{
			Arrivals: traffic.Config{Model: traffic.Model(next() % 3), RatePerMs: knob(),
				BurstFactor: knob(), BurstEveryMs: knob(), BurstMeanMs: knob(),
				DayMs: knob(), DiurnalAmp: knob(),
				FlashEveryMs: knob(), FlashMeanMs: knob(), FlashFactor: knob()},
			DurationMs:  float64(cfg.Queries) * cfg.MeanArrivalMs,
			SLAMs:       50,
			StreamStats: true,
		}
		cfg.MeanArrivalMs, cfg.Queries, cfg.WarmupQueries = 0, 0, 0
	}
	return cfg
}

// openKnobBytes encodes an arrival stream's float knobs the way
// configFromBytes decodes them.
func openKnobBytes(ar traffic.Config) []byte {
	var out []byte
	for _, k := range []float64{ar.RatePerMs, ar.BurstFactor, ar.BurstEveryMs, ar.BurstMeanMs,
		ar.DayMs, ar.DiurnalAmp, ar.FlashEveryMs, ar.FlashMeanMs, ar.FlashFactor} {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(k))
	}
	return out
}

// maxOpenWork bounds the arrival-stream work one fuzzed open loop may
// ask for (openWork); a config past it is valid but too slow to fuzz.
const maxOpenWork = 2e4

// openWork bounds the thinning candidates, and so the arrivals, and the
// episode windows an open-loop run of cfg draws: over its horizon and
// one pre-draw block past it, at most openPredrawBlock arrivals at the
// rate's floor RatePerMs·(1−DiurnalAmp). The candidate clock ticks at the
// peak rate and stops at +Inf once past MaxFloat64.
func openWork(cfg Config) float64 {
	ar := cfg.Open.Arrivals
	s, err := traffic.NewStream(ar)
	if err != nil {
		panic(err) // only called on validated configs
	}
	span := min(cfg.Open.DurationMs+float64(openPredrawBlock)/(ar.RatePerMs*(1-ar.DiurnalAmp)), math.MaxFloat64)
	work := span * s.PeakRate()
	if ar.Model == traffic.MMPP {
		work += span / (ar.BurstEveryMs + ar.BurstMeanMs)
	}
	if ar.FlashEveryMs > 0 {
		work += span / (ar.FlashEveryMs + ar.FlashMeanMs)
	}
	return work
}

// FuzzClusterConfig checks that Validate is Simulate's only gate: Simulate
// errors exactly when Validate does, and every accepted config runs clean
// under check.Enabled and returns finite percentiles. Every accepted
// config also runs with its arrivals pre-drawn on two goroutines, which
// must return the same Result to the last bit.
func FuzzClusterConfig(f *testing.F) {
	// 1–8-node plans of a small model (the plan is FuzzShardPlan's
	// subject, not this target's), with a replicated hot set so
	// HotLookupUs is charged.
	model := dlrm.RM2Small()
	model.Tables, model.RowsPerTable, model.LookupsPerSample = 4, 1000, 8
	plans := make([]*Plan, 8)
	for i := range plans {
		p, err := NewPlan(model, i+1, RowRange, 0.05, 1)
		if err != nil {
			f.Fatal(err)
		}
		plans[i] = p
	}
	f.Add([]byte{})
	// 4 nodes, 2 samples, 1 ms arrivals, 100 queries, default warmup, one
	// server; a plain healthy fleet.
	f.Add([]byte{3, 2, 8, 108, 0, 0, 16, 1, 8, 1, 1, 80})
	// Slowdowns, outages and drops, survived by timeouts, retries, hedges,
	// a retry budget and breakers.
	f.Add([]byte{7, 1, 4, 58, 255, 2, 16, 1, 8, 1, 1, 80, 8,
		40, 8, 32, 40, 8, 13, 4,
		16, 2, 24, 1, 2, 0, 4, 3, 0,
		9})
	// A slowdown chaos window over two domains.
	f.Add([]byte{5, 1, 8, 58, 0, 0, 16, 1, 8, 1, 1, 80, 0,
		0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0,
		3, 2, 2, 1, 0, 2, 8, 40})
	// Negative dense stage, latency, jitter and sub-request cost: Validate
	// and Simulate must both refuse.
	f.Add([]byte{3, 2, 8, 108, 0, 0, 16, 1, 255, 255, 255, 80, 255})
	// NaN latency, +Inf dense stage, -Inf jitter: refused too.
	f.Add([]byte{3, 2, 8, 108, 0, 0, 16, 1, 8, 127, 128, 80, 129})
	// The faulted fleet as an open-loop run with stream stats, Poisson
	// arrivals at its closed loop's rate.
	f.Add(append([]byte{7, 1, 4, 58, 255, 2, 16, 1, 8, 1, 1, 80, 8,
		40, 8, 32, 40, 8, 13, 4,
		16, 2, 24, 1, 2, 0, 4, 3, 0,
		9, 0, 0, 1, 0}, openKnobBytes(traffic.Config{RatePerMs: 2})...))
	// Streams whose Next once never returned: a thinning peak that
	// overflows to +Inf, and a clock that overflows to +Inf, where the
	// diurnal rate was NaN.
	for _, ar := range []traffic.Config{
		{Model: traffic.MMPP, RatePerMs: 1e200, BurstFactor: 1e200, BurstEveryMs: 10, BurstMeanMs: 1},
		{RatePerMs: 1e-306, DayMs: 100, DiurnalAmp: 0.5},
	} {
		f.Add(append([]byte{3, 2, 8, 108, 0, 0, 16, 1, 8, 1, 1, 80, 0,
			0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 1, byte(ar.Model)}, openKnobBytes(ar)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func(old bool) { check.Enabled = old }(check.Enabled)
		check.Enabled = true
		cfg := configFromBytes(plans, data)
		verr := cfg.Validate()
		if verr == nil && cfg.Open != nil && openWork(cfg) > maxOpenWork {
			return // valid, but too slow to simulate here
		}
		res, serr := Simulate(cfg)
		if (verr == nil) != (serr == nil) {
			t.Fatalf("Validate err %v but Simulate err %v for %+v", verr, serr, cfg)
		}
		if verr != nil {
			return
		}
		for _, v := range []float64{res.P50, res.P95, res.P99, res.Mean} {
			if !check.Finite(v) {
				t.Fatalf("non-finite percentile in %+v for %+v", res, cfg)
			}
		}
		restore := SetExecBackend(Parallel(2))
		par, err := Simulate(cfg)
		restore()
		if err != nil {
			t.Fatalf("Parallel(2) rejected a config Sequential ran: %v", err)
		}
		if want, got := fmt.Sprintf("%+v", res), fmt.Sprintf("%+v", par); got != want {
			t.Fatalf("Parallel(2) diverged from Sequential for %+v:\nseq %s\npar %s", cfg, want, got)
		}
	})
}
