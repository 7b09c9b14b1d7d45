package analysis

import (
	"math"
	"reflect"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// feed folds a materialized trace through a characterizer/accumulator
// chunk by chunk, the way a collector would deliver it.
func feed(s trace.Sink, tr *trace.Trace, chunkLen int) {
	for lo := 0; lo < len(tr.Packets); lo += chunkLen {
		hi := min(lo+chunkLen, len(tr.Packets))
		ch := trace.NewChunk(hi - lo)
		for _, p := range tr.Packets[lo:hi] {
			ch.Time = append(ch.Time, p.Time)
			ch.Size = append(ch.Size, p.Size)
			ch.Src = append(ch.Src, p.Src)
			ch.Dst = append(ch.Dst, p.Dst)
			ch.Proto = append(ch.Proto, p.Proto)
			ch.Flags = append(ch.Flags, p.Flags)
			ch.SrcPort = append(ch.SrcPort, p.SrcPort)
			ch.DstPort = append(ch.DstPort, p.DstPort)
		}
		s.Fold(ch)
	}
}

// TestAccumulatorMatchesBinnedBandwidth: the series folded packet by
// packet must be bit-identical to the reference windowing of the whole
// trace.
func TestAccumulatorMatchesBinnedBandwidth(t *testing.T) {
	tr := burstyTrace(100, 200, 20, 1000, 500)
	want, wantDT := refBinnedBandwidth(tr, PaperWindow)
	acc := NewAccumulator(PaperWindow)
	for _, p := range tr.Packets {
		acc.Add(p.Time, p.Size)
	}
	got, dt := acc.Series()
	if dt != wantDT {
		t.Fatalf("dt %v want %v", dt, wantDT)
	}
	if len(got) != len(want) {
		t.Fatalf("%d bins, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("bin %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAccumulatorEmpty: no packets → nil series with the bin width as
// dt.
func TestAccumulatorEmpty(t *testing.T) {
	acc := NewAccumulator(PaperWindow)
	series, dt := acc.Series()
	if series != nil || dt != PaperWindow.Seconds() {
		t.Fatalf("empty accumulator: series=%v dt=%v", series, dt)
	}
}

// allToAllTrace builds the fabric_topo64 shape: every host sends to every
// other host in each of the phases (500 ms apart), with sizes that
// differ by connection and phase and a fifth of the sends skipped, so
// the hosts×(hosts−1) connection series are neither equal nor constant.
func allToAllTrace(hosts, phases int) *trace.Trace {
	tr := trace.New()
	for ph := 0; ph < phases; ph++ {
		start := sim.Time(0).Add(sim.Duration(ph) * 500 * sim.Millisecond)
		for src := 0; src < hosts; src++ {
			for dst := 0; dst < hosts; dst++ {
				if src == dst || (src+dst+ph)%5 == 0 {
					continue
				}
				tr.Packets = append(tr.Packets, trace.Packet{
					Time:  start.Add(sim.Duration(src*hosts+dst) * 20 * sim.Microsecond),
					Size:  uint16(64 + (src*7+dst*13+ph*31)%1400),
					Src:   uint16(src),
					Dst:   uint16(dst),
					Proto: ethernet.ProtoTCP, Flags: ethernet.FlagData,
				})
			}
		}
	}
	return tr
}

// TestStreamCharacterizerMatchesTrace holds the fold to the reference
// definitions on synthetic multi-connection traces (the simulator's own
// traces are held in quick_test.go) — a small one with a representative
// connection, and a 64-host all-to-all one whose 4032 connections put
// the pairwise-correlation kernel at benchmark scale — and holds the
// fold to itself: the replay of a materialized trace and a chunked
// delivery at any chunk length are one Report, SD included.
func TestStreamCharacterizerMatchesTrace(t *testing.T) {
	small := trace.New()
	// Two data connections bursting in phase plus reverse ACK traffic,
	// periodic at 150 ms over 30 s.
	for start := sim.Time(0); start < sim.TimeOf(30); start = start.Add(150 * sim.Millisecond) {
		for i := 0; i < 10; i++ {
			at := start.Add(sim.Duration(i) * 400 * sim.Microsecond)
			small.Packets = append(small.Packets,
				trace.Packet{Time: at, Size: 1000, Src: 1, Dst: 0, Proto: ethernet.ProtoTCP, Flags: ethernet.FlagData},
				trace.Packet{Time: at.Add(90 * sim.Microsecond), Size: 1200, Src: 2, Dst: 0, Proto: ethernet.ProtoTCP, Flags: ethernet.FlagData},
				trace.Packet{Time: at.Add(150 * sim.Microsecond), Size: 64, Src: 0, Dst: 1, Proto: ethernet.ProtoTCP, Flags: ethernet.FlagAck},
			)
		}
	}
	t.Run("small", func(t *testing.T) { checkStreamMatchesTrace(t, small, 3) })
	t.Run("alltoall64", func(t *testing.T) { checkStreamMatchesTrace(t, allToAllTrace(64, 12), 64*63) })
}

func checkStreamMatchesTrace(t *testing.T, tr *trace.Trace, pairs int) {
	if got := len(tr.Pairs()); got != pairs {
		t.Fatalf("trace has %d connections, want %d", got, pairs)
	}
	repConn := [2]int{1, 0}
	want := ReferenceReport(tr, "synthetic", repConn)
	if want.Correlation == 0 || want.Coincidence == 0 {
		t.Errorf("Correlation %v, Coincidence %v: the trace does not exercise the statistic",
			want.Correlation, want.Coincidence)
	}
	replay := CharacterizeTrace(tr, "synthetic", repConn)
	CheckAgainstReference(t, replay, want)
	for _, chunkLen := range []int{1, 7, 16384} {
		sc := NewStreamCharacterizer("synthetic", repConn)
		feed(sc, tr, chunkLen)
		if got := sc.Report(); !reflect.DeepEqual(got, replay) {
			t.Errorf("chunk length %d: Report differs from the replay's", chunkLen)
			CheckAgainstReference(t, got, want)
		}
	}
}

// TestAccumulatorAddDoesNotAllocate: the per-packet hot path with the bin
// array warm must allocate nothing.
func TestAccumulatorAddDoesNotAllocate(t *testing.T) {
	acc := NewAccumulator(PaperWindow)
	span := sim.TimeOf(100)
	acc.Add(0, 1)
	acc.Add(span, 1)
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		acc.Add(sim.Time(int64(i%1000)*int64(span)/1000), uint16(64+i%1400))
		i++
	}); allocs != 0 {
		t.Errorf("Accumulator.Add allocates %v/op, want 0", allocs)
	}
}

// BenchmarkAccumulatorAdd measures the per-packet hot path with the bin
// array warm: it must not allocate.
func BenchmarkAccumulatorAdd(b *testing.B) {
	acc := NewAccumulator(PaperWindow)
	// Warm the bin array over the full span the loop will touch.
	span := sim.TimeOf(100)
	acc.Add(0, 1)
	acc.Add(span, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := sim.Time(int64(i%1000) * int64(span) / 1000)
		acc.Add(t, uint16(64+i%1400))
	}
}

// BenchmarkStreamCharacterizerFold measures the full streaming fold over
// the standard bursty trace, chunked as a collector would deliver it.
func BenchmarkStreamCharacterizerFold(b *testing.B) {
	tr := burstyTrace(100, 200, 20, 1000, 500)
	chunks := make([]*trace.Chunk, 0)
	const chunkLen = 16384
	for lo := 0; lo < len(tr.Packets); lo += chunkLen {
		hi := min(lo+chunkLen, len(tr.Packets))
		ch := trace.NewChunk(hi - lo)
		for _, p := range tr.Packets[lo:hi] {
			ch.Time = append(ch.Time, p.Time)
			ch.Size = append(ch.Size, p.Size)
			ch.Src = append(ch.Src, p.Src)
			ch.Dst = append(ch.Dst, p.Dst)
			ch.Proto = append(ch.Proto, p.Proto)
			ch.Flags = append(ch.Flags, p.Flags)
			ch.SrcPort = append(ch.SrcPort, p.SrcPort)
			ch.DstPort = append(ch.DstPort, p.DstPort)
		}
		chunks = append(chunks, ch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewStreamCharacterizer("bench", [2]int{0, 1})
		for _, ch := range chunks {
			sc.Fold(ch)
		}
	}
}

// TestPrimitivesMatchReport: SizeStats, InterarrivalStats,
// AverageBandwidthKBps, BinnedBandwidth and Spectrum on their own are the
// Report's fields, on every shape of trace including the degenerate
// ones.
func TestPrimitivesMatchReport(t *testing.T) {
	single := trace.New()
	single.Packets = []trace.Packet{{Time: 5, Size: 100, Src: 1, Dst: 0}}
	for name, tr := range map[string]*trace.Trace{
		"empty":    trace.New(),
		"single":   single,
		"bursty":   burstyTrace(20, 170, 6, 900, 350),
		"alltoall": allToAllTrace(8, 9),
	} {
		t.Run(name, func(t *testing.T) {
			CheckPrimitivesMatchReport(t, tr, [2]int{1, 0})
			CheckPrimitivesMatchReport(t, tr, [2]int{-1, -1})
		})
	}
}
