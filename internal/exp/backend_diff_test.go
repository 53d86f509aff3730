package exp

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dlrmsim/internal/cluster"
)

// renderRegistry runs the given experiments and returns each table's
// text+CSV rendering — the byte-level artifact the differential suites
// compare across backends.
func renderRegistry(t *testing.T, ids []string, workers int) [][]byte {
	t.Helper()
	tables, err := RunAll(context.Background(), tinyContext(), ids, workers)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(tables))
	for i, tbl := range tables {
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if err := tbl.RenderCSV(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestExecBackendsRegistryByteIdentical is the execution-backend
// differential suite (DESIGN.md §14): the full registry — including the
// fault-injected cluster sweeps (clu4/clu5) and the open-loop tiers
// (clu6/clu7) — must render byte-identical under the parallel backend
// at 2 and 8 pre-draw goroutines, at 1 worker and at 8, against the
// sequential reference. Any pre-drawn arrival that differs from its
// inline draw, or a ring refill that skips or repeats an arrival, shows
// up here with the experiment named.
func TestExecBackendsRegistryByteIdentical(t *testing.T) {
	ids := IDs()
	want := renderRegistry(t, ids, 1) // sequential reference

	for _, shards := range []int{2, 8} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("par%d/workers%d", shards, workers), func(t *testing.T) {
				restore := cluster.SetExecBackend(cluster.Parallel(shards))
				defer restore()
				got := renderRegistry(t, ids, workers)
				for i, id := range ids {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("%s: output differs from sequential/workers1:\n--- sequential ---\n%s--- par%d ---\n%s",
							id, want[i], shards, got[i])
					}
				}
			})
		}
	}
}
