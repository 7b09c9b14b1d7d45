package analysis

import "testing"

// The benchmarks reuse burstyTrace from analysis_test.go: ~10k packets of
// periodic bursts over 100 s.

func BenchmarkBinnedBandwidth(b *testing.B) {
	tr := burstyTrace(100, 200, 20, 1000, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BinnedBandwidth(tr, PaperWindow)
	}
}

func BenchmarkSlidingBandwidth(b *testing.B) {
	tr := burstyTrace(100, 200, 20, 1000, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SlidingBandwidth(tr, PaperWindow)
	}
}

func BenchmarkSpectrum(b *testing.B) {
	tr := burstyTrace(100, 200, 20, 1000, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Spectrum(tr, PaperWindow)
	}
}

func BenchmarkBursts(b *testing.B) {
	tr := burstyTrace(100, 200, 20, 1000, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Bursts(tr, 50_000_000)
	}
}

// BenchmarkCharacterizeManyPairs is the fabric_topo64 shape: 64 hosts
// all-to-all, so the report's cost is the 4032-connection correlation
// (binning in one pass, then 8.1 M pairs in stats.MeanPairwisePearson).
func BenchmarkCharacterizeManyPairs(b *testing.B) {
	tr := allToAllTrace(64, 53) // 53 phases 500 ms apart: 105 correlation bins
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CharacterizeTrace(tr, "bench", [2]int{0, 1})
	}
}
