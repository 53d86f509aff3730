package main

import (
	"encoding/hex"
	"errors"
	"testing"
)

func digest(b byte) [32]byte { return [32]byte{b} }

func newResult(workload string, seed uint64) *result {
	return &result{Meta: meta{Workload: workload, Seed: seed}, Metrics: map[string]metricVal{}}
}

// A two-op list run for five ops: op 3 repeats op 1's input but gives
// another output, and op 4 returns an error.
func TestCheckCountsFailedOps(t *testing.T) {
	p := phase{recs: []record{
		{i: 0, out: opOut{digest: digest(1)}},
		{i: 1, out: opOut{digest: digest(2)}},
		{i: 2, out: opOut{digest: digest(1)}},
		{i: 3, out: opOut{digest: digest(3)}},
		{i: 4, err: errors.New("boom")},
	}}
	r := newResult("open_day", 7)
	pass := r.check(p, 2, "timed")
	if r.Attempted != 5 || r.Failed != 2 {
		t.Fatalf("attempted %d failed %d, want 5 and 2 (problems %q)", r.Attempted, r.Failed, r.Problems)
	}
	if want := combine([][32]byte{digest(1), digest(2)}); pass != want {
		t.Errorf("pass digest %x, want the first pass's %x", pass, want)
	}
	if got := float64(r.Failed) / float64(r.Attempted); got != 0.4 {
		t.Errorf("error rate %g, want 0.4", got)
	}
}

func TestCheckFirstPassError(t *testing.T) {
	p := phase{recs: []record{{i: 0, err: errors.New("boom")}, {i: 1, out: opOut{digest: digest(1)}}}}
	r := newResult("sweep_small", 1)
	r.check(p, 2, "timed")
	if r.Failed != 1 {
		t.Errorf("failed %d, want 1", r.Failed)
	}
}

// Changing one byte of a pinned digest must fail the run.
func TestPinnedDigestOneByteChange(t *testing.T) {
	d := digest(9)
	good := hex.EncodeToString(d[:])
	ps := pins{"render": {"2": good}}

	r := newResult("render", 2)
	r.Digest = good
	r.checkPin(ps, 1)
	if r.Failed != 0 || r.Pinned != good {
		t.Fatalf("matching pin: failed %d pinned %q", r.Failed, r.Pinned)
	}

	bad := []byte(good)
	bad[len(bad)-1] ^= 1
	ps["render"]["2"] = string(bad)
	r = newResult("render", 2)
	r.Digest = good
	r.checkPin(ps, 1)
	if r.Failed != 1 {
		t.Errorf("a one-byte change to the pin was not caught: failed %d", r.Failed)
	}

	r = newResult("render", 4)
	r.Digest = good
	r.checkPin(ps, 1)
	if r.Failed != 0 || r.Pinned != "" {
		t.Errorf("unpinned seed: failed %d pinned %q", r.Failed, r.Pinned)
	}
}

// The embedded pins parse and pin seeds 1–3 of every workload.
func TestPinsCoverSeeds(t *testing.T) {
	ps, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := uint64(1); seed <= 3; seed++ {
			d, ok := ps.lookup(w.name, seed)
			if !ok {
				t.Errorf("%s seed %d has no pinned digest", w.name, seed)
				continue
			}
			if b, err := hex.DecodeString(d); err != nil || len(b) != 32 {
				t.Errorf("%s seed %d: pinned digest %q is not 32 hex bytes", w.name, seed, d)
			}
		}
	}
}
