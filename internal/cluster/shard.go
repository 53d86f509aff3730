package cluster

import (
	"fmt"

	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/trace"
)

// Policy selects how a model's embedding tables are sharded across nodes.
type Policy int

const (
	// TableWise assigns whole tables round-robin: table t lives on node
	// t mod N. Lookups for one table never fan out, but per-node memory
	// is lumpy (whole tables) and hot tables concentrate load.
	TableWise Policy = iota
	// RowRange splits every table's rows into N contiguous ranges, one
	// per node. Memory is balanced to the row, but every table's lookups
	// fan out across all nodes that own accessed rows.
	RowRange
)

// String returns the policy's CLI spelling.
func (p Policy) String() string {
	switch p {
	case TableWise:
		return "tablewise"
	case RowRange:
		return "rowrange"
	default:
		return "invalid"
	}
}

// AllPolicies lists the sharding policies.
var AllPolicies = []Policy{TableWise, RowRange}

// ParsePolicy resolves a policy from its CLI spelling.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "tablewise", "table":
		return TableWise, nil
	case "rowrange", "row":
		return RowRange, nil
	}
	return 0, fmt.Errorf("cluster: unknown sharding policy %q", name)
}

// Plan places one model's embedding tables on a cluster: the sharding
// policy, the per-node owned-shard footprint, and the replicated hot-row
// set (the top HotRows Zipf ranks of every table, present on every node).
type Plan struct {
	// Model is the sharded DLRM architecture.
	Model dlrm.Config
	// Nodes is the cluster size.
	Nodes int
	// Policy is the sharding policy.
	Policy Policy
	// HotRows is the number of rows per table (the hottest, by access
	// rank) replicated onto every node. 0 disables replication.
	HotRows int
	// ShardBytes is each node's owned (non-replica) embedding footprint.
	ShardBytes []int64

	// perms maps each table's Zipf ranks to its rows through the same
	// bijection trace.Dataset draws with, so each table's hot rows land
	// at different row offsets — without it, RowRange would place every
	// table's hottest rows on node 0.
	perms []trace.RowPerm
	// chunk is the row-range size per node (RowRange only).
	chunk int
}

// NewPlan shards model across nodes under policy, replicating the top
// replicateFrac of every table's rows (by hotness rank) onto every node.
func NewPlan(model dlrm.Config, nodes int, policy Policy, replicateFrac float64, seed uint64) (*Plan, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("cluster: %d nodes", nodes)
	}
	if !(replicateFrac >= 0 && replicateFrac <= 1) { // NaN fails too
		return nil, fmt.Errorf("cluster: replication fraction %g outside [0,1]", replicateFrac)
	}
	if policy != TableWise && policy != RowRange {
		return nil, fmt.Errorf("cluster: invalid policy %d", policy)
	}
	p := &Plan{
		Model:   model,
		Nodes:   nodes,
		Policy:  policy,
		HotRows: int(replicateFrac * float64(model.RowsPerTable)),
		chunk:   (model.RowsPerTable + nodes - 1) / nodes,
	}
	p.perms = make([]trace.RowPerm, model.Tables)
	for t := range p.perms {
		p.perms[t] = trace.NewRowPerm(seed, t, model.RowsPerTable)
	}
	if replicateFrac > 0 && p.HotRows == 0 {
		p.HotRows = 1
	}
	perTable := model.PerTableBytes()
	rowBytes := int64(model.EmbDType.RowBytes(model.EmbDim))
	p.ShardBytes = make([]int64, nodes)
	switch policy {
	case TableWise:
		for t := 0; t < model.Tables; t++ {
			p.ShardBytes[t%nodes] += perTable
		}
	case RowRange:
		for n := 0; n < nodes; n++ {
			rows := model.RowsPerTable - n*p.chunk
			if rows > p.chunk {
				rows = p.chunk
			}
			if rows < 0 {
				rows = 0
			}
			p.ShardBytes[n] = int64(rows) * rowBytes * int64(model.Tables)
		}
	}
	return p, nil
}

// Owner returns the node owning (table, row) under the sharding policy.
func (p *Plan) Owner(table int, row int32) int {
	if p.Policy == TableWise {
		return table % p.Nodes
	}
	return int(row) / p.chunk
}

// Replicated reports whether a lookup with the given hotness rank hits
// the replicated hot-row set (ranks are 0-based, hottest first).
func (p *Plan) Replicated(rank int) bool { return rank < p.HotRows }

// ReplicaBytesPerNode returns the replication memory overhead each node
// carries: the hot rows of every table, minus the ~1/Nodes share the node
// already owns as shard data.
func (p *Plan) ReplicaBytesPerNode() int64 {
	total := int64(p.HotRows) * int64(p.Model.EmbDType.RowBytes(p.Model.EmbDim)) * int64(p.Model.Tables)
	return total * int64(p.Nodes-1) / int64(p.Nodes)
}

// MaxShardBytes returns the largest per-node owned footprint — the
// capacity a node must provision before replicas.
func (p *Plan) MaxShardBytes() int64 {
	var max int64
	for _, b := range p.ShardBytes {
		if b > max {
			max = b
		}
	}
	return max
}

// TotalBytes returns the cluster-wide embedding footprint: all shards
// plus every node's replicas.
func (p *Plan) TotalBytes() int64 {
	var sum int64
	for _, b := range p.ShardBytes {
		sum += b
	}
	return sum + p.ReplicaBytesPerNode()*int64(p.Nodes)
}
