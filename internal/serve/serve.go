// Package serve models DLRM inference serving for the paper's tail-latency
// evaluation (Fig. 17): a Poisson load generator in front of a multi-core
// server, FCFS dispatch of one batch per free core, and percentile
// reporting against SLA targets.
//
// Service times come from the timing simulator (one design point's batch
// latency); an optional jitter term models the service-time variance real
// systems exhibit.
package serve

import (
	"fmt"
	"math"

	"dlrmsim/internal/check"
	"dlrmsim/internal/stats"
)

// Config describes one serving experiment.
type Config struct {
	// Cores is the number of servers (batches served concurrently).
	Cores int
	// MeanArrivalMs is the mean inter-arrival time of the Poisson load.
	MeanArrivalMs float64
	// ServiceMs is the deterministic batch service time (from the
	// timing simulator's Report.BatchLatencyMs).
	ServiceMs float64
	// JitterFrac adds lognormal-ish service variance: each request's
	// service time is multiplied by exp(J·N(0,1)) with J = JitterFrac.
	// 0 disables jitter.
	JitterFrac float64
	// Requests is the number of requests to simulate (default 2000).
	Requests int
	// WarmupRequests are excluded from the percentiles. 0 means unset
	// (default 5% of Requests); -1 requests explicitly zero warmup.
	WarmupRequests int
	// SLATargetMs marks the compliance threshold (0 = no SLA tracking).
	SLATargetMs float64
	// Seed drives arrivals and jitter.
	Seed uint64
}

// applyDefaults rejects what Validate rejects, then resolves the
// zero-means-default fields in place.
func (c *Config) applyDefaults() error {
	if err := c.Validate(); err != nil {
		return err
	}
	c.Requests, c.WarmupRequests = Defaults(c.Requests, c.WarmupRequests)
	return nil
}

// Defaults resolves the zero-means-default run length every request
// loop shares (serve, the closed-loop cluster, hetsched): 0 requests
// means 2000, and the warmup resolves as Warmup does.
func Defaults(requests, warmup int) (int, int) {
	if requests == 0 {
		requests = 2000
	}
	return requests, Warmup(requests, warmup)
}

// Warmup resolves a zero-means-default warmup against a run of n
// requests (or ms, for the open loop): 0 means 5% of n, -1 means none,
// and any other value stands.
func Warmup[T int | float64](n, warmup T) T {
	switch warmup {
	case 0:
		return n / 20
	case -1:
		return 0
	}
	return warmup
}

// Result summarizes one serving run.
type Result struct {
	// P50, P95, P99, Mean are end-to-end latencies in ms (queueing +
	// service), measured after warmup.
	P50, P95, P99, Mean float64
	// SLACompliant is the fraction of post-warmup requests meeting the
	// SLA target (1.0 when no target is set).
	SLACompliant float64
	// Utilization is offered load over capacity: mean service / (arrival
	// × cores). With jitter J the mean service time is the lognormal mean
	// ServiceMs·exp(J²/2), not ServiceMs. Above ~1 the system saturates.
	Utilization float64
	// MaxQueueWaitMs is the worst queueing delay observed.
	MaxQueueWaitMs float64
}

// MeetsSLA reports whether the p95 latency is within the target.
func (r Result) MeetsSLA(targetMs float64) bool { return r.P95 <= targetMs }

// Queue is the earliest-free-server FCFS discipline at the heart of
// Simulate, exported so other simulators reuse the same service model —
// internal/cluster runs one Queue per shard node. Submissions should be
// made in dispatch order; each Submit claims the earliest-free of the
// queue's servers.
//
// Submissions with non-monotonic arrival times are accepted but are NOT
// re-sorted into arrival order: requests are served in submission order
// on the earliest-free server, so a late-submitted early arrival queues
// behind everything submitted before it. Callers that can generate
// out-of-order arrivals must therefore order their own submissions —
// internal/cluster processes sub-request copies (including retries and
// hedges, which launch between later queries' dispatches) globally in
// node-arrival order for exactly this reason.
type Queue struct {
	free []float64
	busy float64
}

// NewQueue returns an empty FCFS queue with the given server count. It
// panics if servers < 1, which indicates a programming error.
func NewQueue(servers int) *Queue {
	if servers < 1 {
		panic(fmt.Sprintf("serve: NewQueue with %d servers", servers))
	}
	return &Queue{free: make([]float64, servers)}
}

// Jitter is the multiplicative lognormal service-time factor for one
// standard-normal draw: exp(frac·draw). Every tier that models service
// variance (serve, cluster, hetsched) uses this same convention so their
// jitter knobs are comparable. Callers must skip the normal draw entirely
// when frac is zero — drawing-and-discarding would shift the RNG stream
// and change jitterless results.
func Jitter(frac, draw float64) float64 {
	return math.Exp(frac * draw)
}

// MeanJitter is the expected value of Jitter(frac, N(0,1)) — the
// lognormal mean exp(frac²/2) — for capacity and utilization math.
func MeanJitter(frac float64) float64 {
	return math.Exp(frac * frac / 2)
}

// Submit enqueues one request arriving at the given time with the given
// service duration and returns when it starts and completes. The request
// starts on the earliest-free server, no earlier than its arrival.
func (q *Queue) Submit(arrival, service float64) (start, done float64) {
	best := 0
	for s := 1; s < len(q.free); s++ {
		if q.free[s] < q.free[best] {
			best = s
		}
	}
	start = arrival
	if q.free[best] > start {
		start = q.free[best]
	}
	done = start + service
	q.free[best] = done
	q.busy += service
	if check.Enabled {
		check.Assert(start >= arrival && done >= start && !math.IsNaN(done),
			"serve: queue broke causality (arrival %g, start %g, done %g)", arrival, start, done)
	}
	return start, done
}

// Unavailable marks every server unavailable until the given time — a
// transient outage window: requests already in service are presumed to
// complete but their responses are held until the window ends, and every
// subsequent Submit starts no earlier than until. Outage time is not
// counted as busy time. Callers should apply windows in nondecreasing
// order, as arrivals reach each window's start (internal/cluster's fault
// model and chaos schedule both do); a window applied early also delays
// submissions that arrive before it begins. The raise is a max, so
// overlapping windows from independent callers compose commutatively —
// the fault model's stochastic outages and the chaos schedule's domain
// outages may interleave on one queue in any order.
func (q *Queue) Unavailable(until float64) {
	for s := range q.free {
		if q.free[s] < until {
			q.free[s] = until
		}
	}
}

// Reset returns the queue to the empty state NewQueue(servers) would
// produce, reusing the server slice when its capacity allows — the
// arena-reuse hook internal/cluster pools per-run queues through. It
// panics if servers < 1, matching NewQueue.
func (q *Queue) Reset(servers int) {
	if servers < 1 {
		panic(fmt.Sprintf("serve: Queue.Reset with %d servers", servers))
	}
	if cap(q.free) >= servers {
		q.free = q.free[:servers]
		for s := range q.free {
			q.free[s] = 0
		}
	} else {
		q.free = make([]float64, servers)
	}
	q.busy = 0
}

// Servers returns the queue's server count.
func (q *Queue) Servers() int { return len(q.free) }

// EarliestFree returns the earliest instant any server can start new
// work. max(0, EarliestFree()−now) is the queueing delay a request
// arriving now would see — the backlog signal internal/cluster's
// admission control and autoscaler read.
func (q *Queue) EarliestFree() float64 {
	best := q.free[0]
	for _, f := range q.free[1:] {
		if f < best {
			best = f
		}
	}
	return best
}

// BusyMs returns the total service time submitted so far — the
// numerator of a utilization estimate.
func (q *Queue) BusyMs() float64 { return q.busy }

// Simulate runs the M/D/c-style queueing simulation (deterministic or
// jittered service, Poisson arrivals, FCFS, c servers).
func Simulate(cfg Config) (Result, error) {
	if err := cfg.applyDefaults(); err != nil {
		return Result{}, err
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x5E12E)
	queue := NewQueue(cfg.Cores)
	latencies := make([]float64, 0, cfg.Requests-cfg.WarmupRequests)
	var now, maxWait float64
	slaOK := 0
	for i := 0; i < cfg.Requests; i++ {
		now += rng.ExpFloat64() * cfg.MeanArrivalMs
		service := cfg.ServiceMs
		if cfg.JitterFrac > 0 {
			service *= Jitter(cfg.JitterFrac, rng.NormFloat64())
		}
		start, _ := queue.Submit(now, service)
		if i < cfg.WarmupRequests {
			continue
		}
		wait := start - now
		if wait > maxWait {
			maxWait = wait
		}
		lat := wait + service
		latencies = append(latencies, lat)
		if cfg.SLATargetMs <= 0 || lat <= cfg.SLATargetMs {
			slaOK++
		}
	}
	pct := stats.Percentiles(latencies, 0.50, 0.95, 0.99)
	res := Result{
		P50:            pct[0],
		P95:            pct[1],
		P99:            pct[2],
		Mean:           stats.Mean(latencies),
		SLACompliant:   float64(slaOK) / float64(len(latencies)),
		Utilization:    cfg.ServiceMs * MeanJitter(cfg.JitterFrac) / (cfg.MeanArrivalMs * float64(cfg.Cores)),
		MaxQueueWaitMs: maxWait,
	}
	return res, nil
}

// SweepPoint is one arrival rate's result (a Fig. 17 x-position).
type SweepPoint struct {
	MeanArrivalMs float64
	Result        Result
}

// SweepArrival runs Simulate across the given mean inter-arrival times —
// the x-axis sweep of Fig. 17.
func SweepArrival(cfg Config, arrivalsMs []float64) ([]SweepPoint, error) {
	if len(arrivalsMs) == 0 {
		return nil, fmt.Errorf("serve: empty arrival sweep")
	}
	out := make([]SweepPoint, 0, len(arrivalsMs))
	for _, a := range arrivalsMs {
		c := cfg
		c.MeanArrivalMs = a
		r, err := Simulate(c)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{MeanArrivalMs: a, Result: r})
	}
	return out, nil
}

// FastestCompliantArrival returns the smallest mean inter-arrival time in
// the sweep whose p95 meets the SLA target — "how fast a load can this
// design tolerate", the paper's headline tail-latency metric. ok is false
// when no point complies.
func FastestCompliantArrival(points []SweepPoint, slaMs float64) (float64, bool) {
	best := math.Inf(1)
	ok := false
	for _, p := range points {
		if p.Result.MeetsSLA(slaMs) && p.MeanArrivalMs < best {
			best = p.MeanArrivalMs
			ok = true
		}
	}
	if !ok {
		return 0, false
	}
	return best, true
}
