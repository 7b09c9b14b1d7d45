package analysis

import (
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// The benchmarks reuse burstyTrace from analysis_test.go: ~10k packets of
// periodic bursts over 100 s.

func BenchmarkBinnedBandwidth(b *testing.B) {
	tr := burstyTrace(100, 200, 20, 1000, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BinnedBandwidth(tr, PaperWindow)
	}
}

func BenchmarkSpectrum(b *testing.B) {
	tr := burstyTrace(100, 200, 20, 1000, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Spectrum(tr, PaperWindow)
	}
}

// BenchmarkCharacterizeManyPairs is the fabric_topo64 shape, one end of
// the fold: 64 hosts all-to-all, so the report's cost is the
// 4032-connection correlation (binning in one pass, then 8.1 M pairs in
// stats.MeanPairwisePearson).
func BenchmarkCharacterizeManyPairs(b *testing.B) {
	tr := allToAllTrace(64, 53) // 53 phases 500 ms apart: 105 correlation bins
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CharacterizeTrace(tr, "bench", [2]int{0, 1})
	}
}

// BenchmarkCharacterizeSmallPackets is the wire_seq shape, the other end
// of the fold: 4 hosts, 1.5 M 75-byte packets, so the report's cost is
// the per-packet fold itself.
func BenchmarkCharacterizeSmallPackets(b *testing.B) {
	const hosts, packets = 4, 1_500_000
	tr := trace.New()
	tr.Packets = make([]trace.Packet, packets)
	for i := range tr.Packets {
		src := i % hosts
		tr.Packets[i] = trace.Packet{
			Time: sim.Time(i) * sim.Time(60*sim.Microsecond), Size: 75,
			Src: uint16(src), Dst: uint16((src + 1 + i/hosts%(hosts-1)) % hosts),
			Proto: ethernet.ProtoTCP, Flags: ethernet.FlagData,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CharacterizeTrace(tr, "bench", [2]int{0, 1})
	}
}
