package main

import (
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"dlrmsim/internal/cluster"
)

// setup_s is the median of every set-up a run makes: setupReps before the
// warm-up, and passReps more as each later pass of the timed op list
// starts. A set-up takes microseconds, so reps taken back to back would
// all sample the host at one instant; spread over the run, they see the
// same host as the ops do.
const setupReps, passReps = 5, 3

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed phase; a traced run adds as much again
	traced   bool
	traceDir string
	size     sizes
	pins     pins // nil checks no pinned digest
}

type metricVal struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one run measured and checked.
type result struct {
	Meta      meta                 `json:"meta"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Digest    string               `json:"digest"`
	Pinned    string               `json:"pinned_digest,omitempty"`
	Metrics   map[string]metricVal `json:"metrics"`
	Problems  []string             `json:"problems,omitempty"`
	Fold      *cpuFold             `json:"fold,omitempty"`
}

func (r *result) set(name string, v float64, unit string, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Problems = append(r.Problems, fmt.Sprintf("%s is %v; reported as 0", name, v))
		v = 0
	}
	r.Metrics[name] = metricVal{Value: v, Unit: unit, Samples: samples}
}

// fail counts n failed ops and records why.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// record is one op as it ran.
type record struct {
	i     int // position in the op sequence
	group string
	dur   time.Duration
	out   opOut
	err   error
}

func runOp(o op, i int, tr *tracer, parent int) record {
	sp := tr.begin(o.name, parent, i)
	t0 := time.Now()
	out, err := o.run()
	d := time.Since(t0)
	tr.end(sp)
	return record{i: i, group: o.group, dur: d, out: out, err: err}
}

// phase is one timed stretch of ops.
type phase struct {
	recs    []record // ordered by position
	elapsed time.Duration
	rt      rtCounters
}

// runPhase drains ops from clients goroutines, op i being ops[i mod
// len(ops)]. It runs whole passes of the list, and starts no new pass once
// dur has passed, so every run times the same mix of ops. The client that
// starts a pass after the first calls onPass, if set, first.
func runPhase(ops []op, clients int, dur time.Duration, tr *tracer, parent int, onPass func()) phase {
	var mu sync.Mutex
	next, limit := 0, len(ops)
	before := readRuntime()
	t0 := time.Now()
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == limit {
			if time.Since(t0) >= dur {
				return 0, false
			}
			limit += len(ops)
		}
		next++
		return next - 1, true
	}
	done := make([][]record, clients)
	var wg sync.WaitGroup
	for c := range done {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, ok := claim(); ok; i, ok = claim() {
				if onPass != nil && i > 0 && i%len(ops) == 0 {
					onPass()
				}
				done[c] = append(done[c], runOp(ops[i%len(ops)], i, tr, parent))
			}
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(t0), rt: readRuntime().sub(before)}
	for _, d := range done {
		p.recs = append(p.recs, d...)
	}
	sort.Slice(p.recs, func(a, b int) bool { return p.recs[a].i < p.recs[b].i })
	return p
}

// check counts the failed ops of a phase of an n-op list — an error, or a
// digest that differs from the first pass's at the same position — and
// returns the digest of the first pass.
func (r *result) check(p phase, n int, what string) [32]byte {
	first := make([][32]byte, n)
	for _, rec := range p.recs[:n] {
		if rec.err != nil {
			r.fail(1, "%s op %d: %v", what, rec.i, rec.err)
		}
		first[rec.i] = rec.out.digest
	}
	for _, rec := range p.recs[n:] {
		switch {
		case rec.err != nil:
			r.fail(1, "%s op %d: %v", what, rec.i, rec.err)
		case rec.out.digest != first[rec.i%n]:
			r.fail(1, "%s op %d: output differs from op %d with the same input", what, rec.i, rec.i%n)
		}
	}
	r.Attempted += len(p.recs)
	return combine(first)
}

func durationsMs(recs []record, group string) []float64 {
	var ms []float64
	for _, rec := range recs {
		if group == "" || rec.group == group {
			ms = append(ms, float64(rec.dur.Nanoseconds())/1e6)
		}
	}
	return ms
}

// run executes one benchmark run: set-up, warm-up, the timed phase and,
// when traced, a second timed phase under spans and a CPU profile.
func run(cfg runConfig) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	r := &result{Meta: hostMeta(), Metrics: map[string]metricVal{}}
	r.Meta.Workload, r.Meta.Seed, r.Meta.Seconds, r.Meta.Traced = w.name, cfg.seed, int(cfg.seconds), cfg.traced
	var tr *tracer
	if cfg.traced {
		tr = newTracer(w.name)
	}
	root := tr.begin(w.name, 0, -1)

	var l *opList
	var setupMu sync.Mutex
	var setupS []float64
	setup := func(reps int) error {
		for k := 0; k < reps; k++ {
			sp := tr.begin("setup", root, -1)
			t0 := time.Now()
			nl, err := w.setup(cfg.seed, cfg.size, tr, sp)
			d := time.Since(t0).Seconds()
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s set-up: %w", w.name, err)
			}
			setupMu.Lock()
			setupS = append(setupS, d)
			if l == nil {
				l = nl
			}
			setupMu.Unlock()
		}
		return nil
	}
	if err := setup(setupReps); err != nil {
		return nil, err
	}

	backend := cluster.Sequential
	if w.parallel {
		backend = cluster.Parallel(nproc)
	}
	defer cluster.SetExecBackend(backend)()
	clients := 1
	if w.concurrent {
		clients = nproc
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))

	sp := tr.begin("warmup", root, -1)
	t0 := time.Now()
	warm := make([]record, len(l.warmup))
	for k, i := range l.warmup {
		warm[k] = runOp(l.ops[i], i, tr, sp)
	}
	r.set("setup.warmup_s", time.Since(t0).Seconds(), "s", len(warm))
	tr.end(sp)

	var setupErr error
	u := runPhase(l.ops, clients, dur, nil, 0, func() {
		if err := setup(passReps); err != nil {
			setupMu.Lock()
			setupErr = err
			setupMu.Unlock()
		}
	})
	if setupErr != nil {
		return nil, setupErr
	}
	r.set("setup_s", median(setupS), "s", len(setupS))
	pass := r.check(u, len(l.ops), "timed")
	r.Digest = hex.EncodeToString(pass[:])
	r.Attempted += len(warm)
	for _, rec := range warm {
		if rec.err != nil || rec.out.digest != u.recs[rec.i].out.digest {
			r.fail(1, "warm-up op %d: output differs from the timed run of the same input (err %v)", rec.i, rec.err)
		}
	}
	r.checkPin(cfg.pins, len(l.ops))

	ms := durationsMs(u.recs, "")
	r.set("op_p50_ms", median(ms), "ms", len(ms))
	if p, ok := tailPercentile(len(ms)); ok {
		v, _ := percentile(ms, p)
		r.set("op_p"+strconv.FormatFloat(p, 'f', -1, 64)+"_ms", v, "ms", len(ms))
	}
	r.set("ops_per_s", float64(len(u.recs))/u.elapsed.Seconds(), "1/s", len(u.recs))
	var simReqs float64
	for _, rec := range u.recs {
		simReqs += rec.out.simReqs
	}
	r.set("sim_qps", simReqs/u.elapsed.Seconds(), "req/s", len(u.recs))
	n := float64(len(u.recs))
	r.set("runtime.allocs_per_op", u.rt.allocs/n, "count", len(u.recs))
	r.set("runtime.alloc_mb_per_op", u.rt.bytes/n/1e6, "MB", len(u.recs))
	gcPct := 0.0
	if u.rt.totalCPU > 0 {
		gcPct = 100 * u.rt.gcCPU / u.rt.totalCPU
	}
	r.set("runtime.gc_cpu_pct", gcPct, "%", len(u.recs))

	if cfg.traced {
		if err := r.traced(cfg, w, l, u, tr, root, dur, clients); err != nil {
			return nil, err
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, "MB", 1)
	r.set("host.canary_ns", r.Meta.CanaryNs, "ns", 5)
	r.set("error_rate", float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
	r.Correct = r.Failed == 0

	tr.end(root)
	if tr != nil {
		if err := tr.writeJSONL(r.tracePath(cfg, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkPin compares the run's digest with the pinned one, if its workload
// and seed have one; a mismatch fails the n ops of the first pass.
func (r *result) checkPin(ps pins, n int) {
	want, ok := ps.lookup(r.Meta.Workload, r.Meta.Seed)
	if !ok {
		return
	}
	r.Pinned = want
	if want != r.Digest {
		r.fail(n, "digest %s, pinned %s", r.Digest, want)
	}
}

func (r *result) tracePath(cfg runConfig, suffix string) string {
	return filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.%s", cfg.workload, cfg.seed, suffix))
}

// traceRounds is how many untraced and traced segments a traced run
// alternates between after its untraced phase. Alternating cancels host
// drift out of trace.overhead_pct; one untraced block followed by one
// traced block would not.
const traceRounds = 4

// traced alternates untraced and traced segments of whole passes and
// derives the per-layer metrics. Each traced segment runs under spans and
// a CPU profile of its own; the fold sums them.
func (r *result) traced(cfg runConfig, w workload, l *opList, u phase, tr *tracer, root int, dur time.Duration, clients int) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	ops := l.traced
	if ops == nil {
		ops = l.ops
	}
	seg := dur / (2 * traceRounds)
	cf := cpuFold{Buckets: map[string]int64{}}
	var plain, traced []record
	var expSums map[string][]float64 // per group, one sum per traced render pass
	for k := 0; k < traceRounds; k++ {
		p := runPhase(l.ops, clients, seg, nil, 0, nil)
		if pass := r.check(p, len(l.ops), "untraced"); hex.EncodeToString(pass[:]) != r.Digest {
			r.fail(len(l.ops), "untraced segment %d digest %x differs from %s", k, pass, r.Digest)
		}
		plain = append(plain, p.recs...)

		t, f, err := r.profiled(r.tracePath(cfg, fmt.Sprintf("cpu%d.pprof", k)), ops, clients, seg, tr, root)
		if err != nil {
			return err
		}
		if pass := r.check(t, len(ops), "traced"); hex.EncodeToString(pass[:]) != r.Digest {
			r.fail(len(ops), "traced segment %d digest %x differs from the untraced %s", k, pass, r.Digest)
		}
		traced = append(traced, t.recs...)
		cf.TotalNs += f.TotalNs
		cf.Samples += f.Samples
		for b, ns := range f.Buckets {
			cf.Buckets[b] += ns
		}
		// The traced render runs one client, so its passes are contiguous.
		if l.traced != nil {
			if expSums == nil {
				expSums = map[string][]float64{}
			}
			for pass := 0; pass < len(t.recs)/len(ops); pass++ {
				sums := map[string]float64{}
				for _, rec := range t.recs[pass*len(ops) : (pass+1)*len(ops)] {
					sums[rec.group] += rec.dur.Seconds()
				}
				for _, g := range expGroups {
					expSums[g] = append(expSums[g], sums[g])
				}
			}
		}
	}

	r.Fold = &cf
	ff, err := os.Create(r.tracePath(cfg, "fold.txt"))
	if err != nil {
		return err
	}
	if err := writeFold(ff, cf); err != nil {
		ff.Close()
		return err
	}
	if err := ff.Close(); err != nil {
		return err
	}
	for name, v := range cpuMetrics(cf) {
		r.set(name, v, "s", cf.Samples)
	}
	for _, g := range expGroups {
		r.set("exp."+g+"_s", median(expSums[g]), "s", len(expSums[g]))
	}

	// sweep.*: op times of every timed segment, which all run the same
	// ops, so the tails have enough samples beyond them.
	var all []record
	if w.concurrent {
		all = append(append(append(all, u.recs...), plain...), traced...)
	}
	for _, g := range sweepGroups {
		ms := durationsMs(all, g)
		r.set("sweep."+g+"_ms_p50", median(ms), "ms", len(ms))
		r.setPercentile("sweep."+g+"_ms_p95", ms, 95, w.concurrent)
	}
	r.setPercentile("sweep.op_p99_ms", durationsMs(all, ""), 99, w.concurrent)

	r.dayMetrics(w, l, traced, tr, root)

	// The traced render runs its experiments one at a time, so its op
	// times do not compare with the untraced render's.
	overhead := 0.0
	tms := durationsMs(traced, "")
	if l.traced == nil {
		overhead = 100 * (median(tms)/median(durationsMs(plain, "")) - 1)
	}
	r.set("trace.overhead_pct", overhead, "%", len(tms))
	return nil
}

// profiled runs one traced segment under a CPU profile written to path,
// and folds the profile.
func (r *result) profiled(path string, ops []op, clients int, dur time.Duration, tr *tracer, root int) (phase, cpuFold, error) {
	f, err := os.Create(path)
	if err != nil {
		return phase{}, cpuFold{}, err
	}
	sp := tr.begin("timed", root, -1)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return phase{}, cpuFold{}, err
	}
	t := runPhase(ops, clients, dur, tr, sp, nil)
	pprof.StopCPUProfile()
	tr.end(sp)
	if err := f.Close(); err != nil {
		return phase{}, cpuFold{}, err
	}
	if f, err = os.Open(path); err != nil {
		return phase{}, cpuFold{}, err
	}
	defer f.Close()
	p, err := decodeProfile(f)
	if err != nil {
		return phase{}, cpuFold{}, fmt.Errorf("%s: %w", path, err)
	}
	cf, err := fold(p)
	if err != nil {
		return phase{}, cpuFold{}, fmt.Errorf("%s: %w", path, err)
	}
	return t, cf, nil
}

// setPercentile sets a per-layer tail percentile; it reads 0 where it does
// not apply or too few samples lie beyond it, and the refusal is noted.
func (r *result) setPercentile(name string, ms []float64, p float64, applies bool) {
	v := 0.0
	if applies {
		var err error
		if v, err = percentile(ms, p); err != nil {
			r.Problems = append(r.Problems, name+": "+err.Error())
		}
	}
	r.set(name, v, "ms", len(ms))
}

// dayMetrics sets the cluster.* metrics of the day workloads: the cost per
// served copy, the useful-outcome ratios of the day, and the speedup of
// the parallel backend over one extra day on one logical process.
func (r *result) dayMetrics(w workload, l *opList, traced []record, tr *tracer, root int) {
	var nsPerCopy, days []float64
	if w.parallel {
		for _, rec := range traced {
			days = append(days, rec.dur.Seconds())
			if rec.out.copies > 0 {
				nsPerCopy = append(nsPerCopy, float64(rec.dur.Nanoseconds())/rec.out.copies)
			}
		}
	}
	r.set("cluster.ns_per_copy", median(nsPerCopy), "ns", len(nsPerCopy))
	var p1, px, copies, goodput, shed float64
	if w.parallel {
		restore := cluster.SetExecBackend(cluster.Sequential)
		rec := runOp(l.ops[0], -1, tr, root)
		restore()
		r.Attempted++
		if rec.err != nil || hex.EncodeToString(rec.out.digest[:]) != r.Digest {
			r.fail(1, "one-process day differs from the %d-process day (err %v)", runtime.GOMAXPROCS(0), rec.err)
		}
		p1 = rec.dur.Seconds()
		px = p1 / median(days)
		d := l.lastDay
		copies, shed = d.RetryAmplification, d.ShedRate
		if d.OfferedQPS > 0 {
			goodput = d.Goodput / d.OfferedQPS
		}
	}
	r.set("cluster.day_p1_s", p1, "s", 1)
	r.set("cluster.parallel_x", px, "x", len(days))
	r.set("cluster.copies_per_query", copies, "ratio", 1)
	r.set("cluster.goodput_ratio", goodput, "ratio", 1)
	r.set("cluster.shed_rate", shed, "ratio", 1)
}
