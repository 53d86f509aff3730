package stats_test

import (
	"testing"

	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
)

// BenchmarkZipfShared times the path every cluster run takes: the shared
// sampler at the hotness classes' reference exponents over a 50,000-row
// table (the end-to-end benchmark's table height), drawing on a
// value-type generator the way cluster's sampleRank does.
func BenchmarkZipfShared(b *testing.B) {
	for _, c := range []struct {
		name string
		hot  trace.Hotness
	}{{"high", trace.HighHot}, {"medium", trace.MediumHot}, {"low", trace.LowHot}} {
		b.Run(c.name, func(b *testing.B) {
			z := stats.NewSharedZipf(50_000, c.hot.ReferenceExponent())
			r := stats.SeededRNG(1)
			sum := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += z.SampleWith(&r)
			}
			if sum < 0 {
				b.Fatal("negative rank")
			}
		})
	}
}
