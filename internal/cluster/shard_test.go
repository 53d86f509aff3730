package cluster

import (
	"math"
	"testing"

	"dlrmsim/internal/dlrm"
)

func testModel() dlrm.Config { return dlrm.RM2Small().Scaled(20) }

func TestShardBytesCoverModel(t *testing.T) {
	model := testModel()
	for _, policy := range AllPolicies {
		for _, nodes := range []int{1, 2, 3, 8} {
			p, err := NewPlan(model, nodes, policy, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, b := range p.ShardBytes {
				if b < 0 {
					t.Fatalf("%v/%d nodes: negative shard bytes", policy, nodes)
				}
				sum += b
			}
			if sum != model.EmbeddingBytes() {
				t.Errorf("%v/%d nodes: shards cover %d bytes, model is %d",
					policy, nodes, sum, model.EmbeddingBytes())
			}
			if p.TotalBytes() != sum {
				t.Errorf("%v/%d nodes: TotalBytes %d != shard sum %d with no replicas",
					policy, nodes, p.TotalBytes(), sum)
			}
		}
	}
}

func TestOwnerInRange(t *testing.T) {
	model := testModel()
	for _, policy := range AllPolicies {
		p, err := NewPlan(model, 5, policy, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for tab := 0; tab < model.Tables; tab++ {
			for rank := 0; rank < model.RowsPerTable; rank += 97 {
				n := p.Owner(tab, p.perms[tab].Row(rank))
				if n < 0 || n >= p.Nodes {
					t.Fatalf("%v: owner(%d, rank %d) = %d outside [0,%d)", policy, tab, rank, n, p.Nodes)
				}
			}
		}
	}
}

func TestRowPermutationIsBijective(t *testing.T) {
	model := testModel()
	p, err := NewPlan(model, 4, RowRange, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool, model.RowsPerTable)
	for rank := 0; rank < model.RowsPerTable; rank++ {
		r := p.perms[0].Row(rank)
		if seen[r] {
			t.Fatalf("rank %d collides at row %d", rank, r)
		}
		seen[r] = true
	}
}

func TestReplicaAccounting(t *testing.T) {
	model := testModel()
	p0, err := NewPlan(model, 4, RowRange, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p0.HotRows != 0 || p0.ReplicaBytesPerNode() != 0 {
		t.Fatalf("f=0 has replicas: hotRows=%d bytes=%d", p0.HotRows, p0.ReplicaBytesPerNode())
	}
	prev := int64(0)
	for _, f := range []float64{0.0001, 0.01, 0.1, 1} {
		p, err := NewPlan(model, 4, RowRange, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.HotRows < 1 {
			t.Fatalf("f=%g replicates no rows", f)
		}
		b := p.ReplicaBytesPerNode()
		if b < prev {
			t.Fatalf("replica bytes not monotone in f: %d after %d", b, prev)
		}
		prev = b
		// A node never stores more replicas than the full hot set.
		full := int64(p.HotRows) * int64(model.Tables) * (model.PerTableBytes() / int64(model.RowsPerTable))
		if b > full {
			t.Fatalf("f=%g: replica bytes %d exceed full hot set %d", f, b, full)
		}
	}
}

func TestReplicatedRankThreshold(t *testing.T) {
	p, err := NewPlan(testModel(), 4, TableWise, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Replicated(0) || !p.Replicated(p.HotRows-1) {
		t.Fatal("hottest ranks not replicated")
	}
	if p.Replicated(p.HotRows) {
		t.Fatal("rank beyond the hot set reported replicated")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"tablewise", TableWise}, {"table", TableWise}, {"rowrange", RowRange}, {"row", RowRange}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePolicy("hash"); err == nil {
		t.Error("accepted unknown policy")
	}
}

func TestNewPlanValidation(t *testing.T) {
	model := testModel()
	if _, err := NewPlan(model, 0, TableWise, 0, 1); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := NewPlan(model, 4, TableWise, -0.1, 1); err == nil {
		t.Error("accepted negative replication")
	}
	if _, err := NewPlan(model, 4, TableWise, 1.5, 1); err == nil {
		t.Error("accepted replication > 1")
	}
	if p, err := NewPlan(model, 4, TableWise, math.NaN(), 1); err == nil {
		t.Errorf("accepted NaN replication (HotRows %d)", p.HotRows)
	}
	if _, err := NewPlan(model, 4, Policy(99), 0, 1); err == nil {
		t.Error("accepted invalid policy")
	}
	bad := model
	bad.Tables = 0
	if _, err := NewPlan(bad, 4, TableWise, 0, 1); err == nil {
		t.Error("accepted invalid model")
	}
}
