package cluster

import (
	"math"
	"reflect"
	"testing"

	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// streamTestOpen is the shared open-loop spec for stream-vs-batch
// comparisons: shedding, a population, faults-free but hedged, at
// moderate overload so violations and sheds actually occur.
func streamTestOpen(t *testing.T, stream bool) Config {
	t.Helper()
	cfg := openTestConfig(t, 4, &OpenLoop{
		Arrivals:    traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.75)},
		Population:  &traffic.Population{Users: 64, RevisitProb: 0.5, Affinity: 0.6},
		DurationMs:  600,
		SLAMs:       2,
		Admission:   Admission{Policy: ShedOverBudget, QueueBudgetMs: 8},
		StreamStats: stream,
	})
	cfg.Mitigation = Mitigation{TimeoutMs: 2, MaxRetries: 2, HedgeDelayMs: 1, DegradedJoin: true}
	cfg.Faults = FaultModel{
		SlowdownEveryMs: 40, SlowdownMeanMs: 6, SlowdownFactor: 4,
		DownEveryMs: 120, DownMeanMs: 3,
		DropProb: 0.01,
	}
	return cfg
}

// TestStreamStatsMatchesBatch pins the stream-stats accuracy contract
// on every open-loop exec config plus streamTestOpen: every Result field
// except the percentiles and the mean is EXACTLY the batch join's value;
// the percentiles sit within the sketch's error bound; Mean differs only
// by float summation order.
func TestStreamStatsMatchesBatch(t *testing.T) {
	cfgs := openExecConfigs(t)
	cfgs["stream-test"] = streamTestOpen(t, false)
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			batch, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := *cfg.Open
			o.StreamStats = true
			cfg.Open = &o
			stream, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Exact: everything except the three percentiles and the mean.
			bv, sv := reflect.ValueOf(batch), reflect.ValueOf(stream)
			for i := 0; i < bv.NumField(); i++ {
				switch f := bv.Type().Field(i).Name; f {
				case "P50", "P95", "P99", "Mean":
				default:
					if b, s := bv.Field(i).Interface(), sv.Field(i).Interface(); b != s {
						t.Errorf("%s: batch %v, stream %v (must be exact)", f, b, s)
					}
				}
			}
			if name == "stream-test" && (batch.Goodput == 0 || batch.ShedRate == 0 || batch.SLAViolationMinutes == 0) {
				t.Fatalf("fixture too tame to exercise the contract: %+v", batch)
			}

			// Bounded: percentiles within twice the sketch's half-bucket bound.
			relTol := 2.0 / 128
			for _, p := range []struct {
				name string
				b, s float64
			}{{"P50", batch.P50, stream.P50}, {"P95", batch.P95, stream.P95}, {"P99", batch.P99, stream.P99}} {
				if rel := math.Abs(p.s-p.b) / p.b; rel > relTol {
					t.Errorf("%s: batch %g, stream %g (rel err %.4f > %.4f)", p.name, p.b, p.s, rel, relTol)
				}
			}
			if rel := math.Abs(stream.Mean-batch.Mean) / batch.Mean; rel > 1e-9 {
				t.Errorf("Mean: batch %g, stream %g (beyond FP reassociation)", batch.Mean, stream.Mean)
			}
		})
	}
}

// TestStreamStatsFlatMemory pins the flat live state in both summary
// modes: quadrupling the run length must not grow the live-record
// high-water marks, which track in-flight work, not run length. The
// exact mode keeps only its two floats per scored query past the join.
func TestStreamStatsFlatMemory(t *testing.T) {
	run := func(stream bool, durationMs float64) (liveSubs, liveJoins, arrivals, samples, scored int) {
		cfg := openTestConfig(t, 4, &OpenLoop{
			Arrivals:    traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.6)},
			DurationMs:  durationMs,
			SLAMs:       5,
			StreamStats: stream,
		})
		if err := cfg.applyDefaults(); err != nil {
			t.Fatal(err)
		}
		r, err := newOpenRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.loop(1)
		res := r.summary()
		arrivals = int(res.OfferedQPS * (durationMs - durationMs/20) / 1e3)
		return r.sj.maxLiveSubs, r.sj.maxLiveJoins, arrivals, len(r.sj.lats), r.tally.nLat
	}
	for _, stream := range []bool{true, false} {
		s1, j1, n1, _, _ := run(stream, 500)
		s4, j4, n4, samples, scored := run(stream, 2000)
		if n4 < 3*n1 {
			t.Fatalf("stream %v: fixture broken: 4x duration saw %d vs %d arrivals", stream, n4, n1)
		}
		if s1 == 0 || j1 == 0 {
			t.Fatalf("stream %v: high-water marks never rose", stream)
		}
		// The in-flight population is set by load, not horizon: allow
		// noise but reject anything resembling linear growth.
		if float64(s4) > 2*float64(s1) || float64(j4) > 2*float64(j1) {
			t.Fatalf("stream %v: live records grew with run length: subs %d -> %d, joins %d -> %d (arrivals %d -> %d)",
				stream, s1, s4, j1, j4, n1, n4)
		}
		if s4 > n4/4 || j4 > n4/4 {
			t.Fatalf("stream %v: high-water %d subs / %d joins not small against %d arrivals", stream, s4, j4, n4)
		}
		if stream && samples != 0 || !stream && samples != scored {
			t.Fatalf("stream %v: %d retained samples for %d scored queries", stream, samples, scored)
		}
	}
}

// TestStreamStatsDeterministic: the stream-stats run is still a pure
// function of the config.
func TestStreamStatsDeterministic(t *testing.T) {
	a, err := Simulate(streamTestOpen(t, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(streamTestOpen(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("stream-stats run not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestOpenClosedLoopAgreement is the preallocation satellite's
// regression: the open loop driven by a constant-rate Poisson stream
// and the closed loop at the same mean arrival interval describe the
// same system, so their steady-state summaries must agree. The arrival
// processes are distinct random streams, so agreement is statistical —
// but at matched load, deviations beyond tens of percent mean one loop
// is charging different work.
func TestOpenClosedLoopAgreement(t *testing.T) {
	util := 0.5
	closed := testConfig(t, 4, RowRange, 0.01, trace.HighHot)
	closed.MeanArrivalMs = ArrivalForUtilization(closed.Plan, closed.Timing, 8, 2, util)
	closed.Queries = 4000
	cRes, err := Simulate(closed)
	if err != nil {
		t.Fatal(err)
	}

	open := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: 1 / closed.MeanArrivalMs},
		DurationMs: float64(closed.Queries) * closed.MeanArrivalMs,
		SLAMs:      50,
	})
	oRes, err := Simulate(open)
	if err != nil {
		t.Fatal(err)
	}

	within := func(name string, a, b, tol float64) {
		t.Helper()
		if rel := math.Abs(a-b) / b; rel > tol {
			t.Errorf("%s: open %g vs closed %g (rel %.3f > %.2f)", name, a, b, rel, tol)
		}
	}
	within("Mean", oRes.Mean, cRes.Mean, 0.20)
	within("P50", oRes.P50, cRes.P50, 0.20)
	within("P95", oRes.P95, cRes.P95, 0.25)
	within("MeanFanout", oRes.MeanFanout, cRes.MeanFanout, 0.05)
	within("Utilization", oRes.Utilization, cRes.Utilization, 0.20)
	if oRes.ShedRate != 0 || oRes.Goodput == 0 {
		t.Fatalf("open-loop baseline should admit and serve everything: %+v", oRes)
	}
}
