package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// meta records the host and build a result came from, so two result
// files are only compared when they are comparable.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified"`
	CanaryNs   float64 `json:"host_canary_ns"`
}

func hostMeta() meta {
	m := meta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		CanaryNs:   canary(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or GOARCH
// where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// canarySink keeps the canary loop from being optimised away.
var canarySink uint64

// canary times a fixed xorshift loop and returns the median of five runs
// in ns. It moves only with the host (clock, contention), never with the
// simulator, so a shift in it between two result files is host drift.
func canary() float64 {
	ts := make([]float64, 5)
	for r := range ts {
		t0 := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts[r] = float64(time.Since(t0).Nanoseconds())
		canarySink += x
	}
	return median(ts)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// rtCounters are cumulative runtime counters; the difference of two
// readings measures the work between them.
type rtCounters struct {
	allocs, bytes, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return rtCounters{allocs: v[0], bytes: v[1], gcCPU: v[2], totalCPU: v[3]}
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.allocs - b.allocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}
