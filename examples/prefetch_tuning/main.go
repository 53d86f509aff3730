// Prefetch tuning: explore Algorithm 3's design space (pf_dist ×
// pf_blocks) on a chosen platform, the way the paper derives its Fig. 10
// settings — distance 4 with the whole 8-line row on Cascade Lake, only
// 2 lines on wide-window parts like Sapphire Rapids.
//
// Run with: go run ./examples/prefetch_tuning [-cpu CSL|SKL|ICL|SPR|Zen3]
package main

import (
	"flag"
	"fmt"
	"log"

	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/embedding"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/trace"
)

func main() {
	cpuName := flag.String("cpu", "CSL", "platform: SKL | CSL | ICL | SPR | Zen3")
	flag.Parse()

	cpu, err := platform.ByName(*cpuName)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.Options{
		Model:   dlrm.RM2Small().Scaled(8),
		CPU:     cpu,
		Hotness: trace.LowHot,
		Scheme:  core.SWPF,
		Cores:   4,
		Seed:    1,
	}
	dists := []int{1, 2, 4, 8, 16}
	blocks := []int{1, 2, 4, 8}

	fmt.Printf("Algorithm 3 tuning surface on %s (batch latency, cycles):\n\n", cpu.FullName)
	fmt.Printf("%8s", "dist\\blk")
	for _, b := range blocks {
		fmt.Printf("%12d", b)
	}
	fmt.Println()
	var best core.Report
	var bestPF embedding.PrefetchConfig
	for _, d := range dists {
		fmt.Printf("%8d", d)
		for _, b := range blocks {
			opts.Prefetch = embedding.PrefetchConfig{Dist: d, Blocks: b}
			rep, err := core.Run(opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%12.0f", rep.BatchLatencyCycles)
			if !bestPF.Enabled() || rep.BatchLatencyCycles < best.BatchLatencyCycles {
				best, bestPF = rep, opts.Prefetch
			}
		}
		fmt.Println()
	}
	fmt.Printf("\nbest: dist=%d blocks=%d (%.0f cycles, L1D hit %.1f%%)\n",
		bestPF.Dist, bestPF.Blocks, best.BatchLatencyCycles, 100*best.L1HitRate)
	fmt.Printf("platform's shipped tuning: dist=%d blocks=%d\n", cpu.TunedPFDist, cpu.TunedPFBlocks)
}
