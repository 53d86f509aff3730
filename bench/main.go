// Command bench is dlrmsim's end-to-end benchmark. It measures host time —
// how fast the simulator runs, not what it simulates — on four workloads
// that stand for the runs people do: a registry render, a day-scale
// open-loop cluster run with and without chaos, and a sweep of short
// cluster and hetsched runs.
//
// Build and run it from the repository root with
//
//	bash bench/run.sh -workload open_day -seed 1 [-seconds 15] [-trace 1] [-out result.json]
//	bash bench/run.sh -compare parent/ change/
//
// Every run checks the simulator's outputs against a digest, prints each
// metric as "workload metric value unit n=samples", and ends with a JSON
// line {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// pinnedJSON holds the digest every full-size workload must produce for
// seeds 1–3.
//
//go:embed testdata/digests.json
var pinnedJSON []byte

// pins maps workload → seed → pinned digest.
type pins map[string]map[string]string

func loadPins() (pins, error) {
	var ps pins
	if err := json.Unmarshal(pinnedJSON, &ps); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return ps, nil
}

func (p pins) lookup(workload string, seed uint64) (string, bool) {
	d, ok := p[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: render, open_day, chaos_day or sweep_small")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase in seconds (one full pass of the op list always runs)")
		traceOn  = flag.Int("trace", 0, "1 runs a second, traced phase and prints the per-layer metrics instead of the end-to-end ones")
		traceDir = flag.String("tracedir", filepath.Join(".bench_build", "trace"), "directory a traced run writes its spans, CPU profile and fold to")
		out      = flag.String("out", "", "also write the full result record as JSON to this file")
		compare  = flag.Bool("compare", false, "compare result files: -compare <parent dir or glob> <change dir or glob>")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two arguments: the parent's and the change's result files (directory or glob)")
			os.Exit(2)
		}
		ok, err := runCompare(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	var bad []string
	if _, err := findWorkload(*workload); err != nil {
		bad = append(bad, err.Error())
	}
	if *seconds < 0 {
		bad = append(bad, fmt.Sprintf("negative -seconds %g", *seconds))
	}
	if *traceOn != 0 && *traceOn != 1 {
		bad = append(bad, fmt.Sprintf("-trace %d, want 0 or 1", *traceOn))
	}
	if flag.NArg() > 0 {
		bad = append(bad, fmt.Sprintf("unexpected arguments %q", flag.Args()))
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "bench:", b)
		}
		os.Exit(2)
	}
	ps, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	r, err := run(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *traceOn == 1,
		traceDir: *traceDir, size: fullSize, pins: ps,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeResult(*out, r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if err := printResult(os.Stdout, r); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !r.Correct {
		os.Exit(1)
	}
}

func writeResult(path string, r *result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric as "workload metric value unit
// n=samples" — declared metrics first, in declaration order — then the
// digest, the run metadata and any problems, and last the summary line
// with the metrics BENCHMARK.json declares for this kind of run.
func printResult(w io.Writer, r *result) error {
	name := r.Meta.Workload
	var names []string
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := r.Metrics[m.Name]; ok {
			names, seen[m.Name] = append(names, m.Name), true
		}
	}
	var extra []string
	for n := range r.Metrics {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range append(names, extra...) {
		v := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s n=%d\n", name, n, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit, v.Samples)
	}
	state := "unpinned"
	if r.Pinned != "" {
		state = "matches pin"
		if r.Pinned != r.Digest {
			state = "MISMATCH, pinned " + r.Pinned
		}
	}
	fmt.Fprintf(w, "%s digest %s (%s)\n", name, r.Digest, state)
	m := r.Meta
	fmt.Fprintf(w, "%s meta seed=%d seconds=%d traced=%t nproc=%d gomaxprocs=%d go=%s revision=%q modified=%t cpu=%q\n",
		name, m.Seed, m.Seconds, m.Traced, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Revision, m.Modified, m.CPUModel)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s problem %s\n", name, p)
	}
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueOut{}}
	for _, d := range declared(r.Meta.Traced) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		s.Metrics[d.Name] = valueOut{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
