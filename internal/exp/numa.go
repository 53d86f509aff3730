package exp

import (
	"fmt"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

func init() {
	register(Experiment{ID: "ext4", Title: "Socket pinning vs page-interleaved NUMA (extension)", Run: runExt4})
}

// runExt4 quantifies the paper's implicit deployment choice — pinning
// inference to one socket — against letting the same cores fault half
// their embedding traffic to the remote socket (page-interleaved tables),
// and against doubling the cores across both sockets.
func runExt4(x *Context) (*Table, error) {
	t := &Table{
		ID: "ext4", Title: "NUMA placement (rm2_1, Medium Hot, embedding-only)",
		Headers: []string{"placement", "prefetch", "batch latency (ms)", "avg load lat (cyc)", "remote fills", "per-socket BW (GB/s)"},
	}
	model := x.Cfg.model(dlrm.RM2Small())
	cores := x.Cfg.multiCores(platform.CascadeLake())
	if cores > 8 {
		cores = 8
	}
	type placement struct {
		name        string
		sockets     int
		activeCores int
	}
	placements := []placement{
		{"pinned: 1 socket (paper)", 1, cores},
		{"interleaved: 1 socket's cores, 2 sockets' memory", 2, cores},
		{"spread: both sockets' cores", 2, 2 * cores},
	}
	pfs := []embedding.PrefetchConfig{{}, {Dist: 4, Blocks: 8}}
	var cells []core.Options
	for _, pl := range placements {
		for _, pf := range pfs {
			o := core.Options{
				Model: model, Hotness: trace.MediumHot,
				Cores: cores, Sockets: pl.sockets, ActiveCores: pl.activeCores,
				EmbeddingOnly: true,
			}
			if pf.Enabled() {
				o.Scheme, o.Prefetch = core.SWPF, pf
			}
			cells = append(cells, o)
		}
	}
	reps, err := x.RunMany(cells)
	if err != nil {
		return nil, err
	}
	for i, rep := range reps {
		pfName := "off"
		if cells[i].Prefetch.Enabled() {
			pfName = "SW-PF"
		}
		bw := ""
		for j, b := range rep.SocketBandwidthGBs {
			if j > 0 {
				bw += " / "
			}
			bw += fmt.Sprintf("%.1f", b)
		}
		t.AddRow(placements[i/len(pfs)].name, pfName, f2(rep.BatchLatencyMs), f1(rep.AvgLoadLatency),
			pct(rep.RemoteFillFraction), bw)
	}
	t.AddNote("pinning avoids the interconnect penalty on every remote fill; SW-PF hides part of the remote latency too, making interleaved placement less painful")
	return t, nil
}
