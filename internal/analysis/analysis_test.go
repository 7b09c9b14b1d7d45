package analysis

import (
	"math"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

// burstyTrace builds a synthetic trace with periodic bursts: every
// periodMs, a burst of count packets of size bytes spaced spacingUs
// apart, across hosts 0→1.
func burstyTrace(durationSec float64, periodMs int, count, bytes, spacingUs int) *trace.Trace {
	t := trace.New()
	period := sim.Duration(periodMs) * sim.Millisecond
	for start := sim.Time(0); start < sim.TimeOf(durationSec); start = start.Add(period) {
		for i := 0; i < count; i++ {
			t.Packets = append(t.Packets, trace.Packet{
				Time: start.Add(sim.Duration(i*spacingUs) * sim.Microsecond),
				Size: uint16(bytes), Src: 0, Dst: 1,
				Proto: ethernet.ProtoTCP, Flags: ethernet.FlagData,
			})
		}
	}
	return t
}

func TestSizeAndInterarrivalStats(t *testing.T) {
	tr := burstyTrace(1, 100, 5, 1000, 500)
	ss := SizeStats(tr)
	if ss.Min != 1000 || ss.Max != 1000 || ss.SD != 0 {
		t.Errorf("size stats = %+v", ss)
	}
	is := InterarrivalStats(tr)
	if is.Min != 0.5 { // 500 µs
		t.Errorf("min interarrival = %v", is.Min)
	}
	if is.Max < 97 || is.Max > 99 { // gap between bursts
		t.Errorf("max interarrival = %v", is.Max)
	}
	// Bursty: max ≫ avg, the paper's signature.
	if is.Max/is.Mean < 5 {
		t.Errorf("max/avg = %v, expected bursty ratio", is.Max/is.Mean)
	}
}

func TestAverageBandwidth(t *testing.T) {
	// 10 bursts/s × 5 pkts × 1000 B = ~50 KB/s.
	tr := burstyTrace(10, 100, 5, 1000, 500)
	got := AverageBandwidthKBps(tr)
	if got < 45 || got > 56 {
		t.Errorf("avg bandwidth = %v KB/s, want ≈50", got)
	}
	if AverageBandwidthKBps(trace.New()) != 0 {
		t.Error("empty trace bandwidth != 0")
	}
}

func TestSlidingBandwidthWindow(t *testing.T) {
	tr := burstyTrace(1, 200, 4, 1250, 100)
	sb := SlidingBandwidth(tr, PaperWindow)
	if len(sb) != tr.Len() {
		t.Fatalf("len = %d", len(sb))
	}
	// At the last packet of a burst, the window holds the whole burst:
	// 5000 B / 10 ms = 500 KB/s.
	peak := 0.0
	for _, s := range sb {
		if s.KBps > peak {
			peak = s.KBps
		}
	}
	if math.Abs(peak-500) > 1 {
		t.Errorf("peak = %v KB/s, want 500", peak)
	}
	if SlidingBandwidth(trace.New(), PaperWindow) != nil {
		t.Error("sliding bandwidth of empty trace")
	}
}

func TestSlidingWindowExpiry(t *testing.T) {
	// Two packets 20 ms apart: the second window must not include the first.
	tr := trace.New()
	tr.Packets = []trace.Packet{
		{Time: 0, Size: 1000},
		{Time: sim.Time(20 * sim.Millisecond), Size: 500},
	}
	sb := SlidingBandwidth(tr, PaperWindow)
	if sb[1].KBps != 50 { // 500 B / 10 ms
		t.Errorf("second sample = %v, want 50", sb[1].KBps)
	}
}

func TestBinnedBandwidthConservesBytes(t *testing.T) {
	tr := burstyTrace(2, 70, 3, 800, 300)
	series, dt := BinnedBandwidth(tr, PaperWindow)
	if dt != 0.01 {
		t.Errorf("dt = %v", dt)
	}
	var sum float64
	for _, v := range series {
		sum += v * dt * 1000 // back to bytes
	}
	if math.Abs(sum-float64(tr.TotalBytes())) > 1 {
		t.Errorf("binned total %v != trace total %d", sum, tr.TotalBytes())
	}
}

func TestSpectrumFindsBurstPeriod(t *testing.T) {
	// 5 Hz bursts, each ~30 ms wide so the spectral envelope decays and
	// the fundamental dominates (a 1-bin impulse train has flat
	// harmonics).
	tr := burstyTrace(40, 200, 10, 1250, 3000)
	s := Spectrum(tr, PaperWindow)
	got := s.DominantFreq()
	if math.Abs(got-5) > 3*s.DF {
		t.Errorf("dominant = %v Hz, want 5", got)
	}
}

func TestSpectrumHarmonics(t *testing.T) {
	tr := burstyTrace(40, 250, 4, 1500, 100) // 4 Hz
	s := Spectrum(tr, PaperWindow)
	peaks := s.Peaks(4, 1.5)
	if len(peaks) < 2 {
		t.Fatalf("peaks = %v", peaks)
	}
	for _, p := range peaks {
		mult := math.Round(p.Freq / 4)
		if mult < 1 || math.Abs(p.Freq-4*mult) > 3*s.DF {
			t.Errorf("peak %v Hz is not a 4 Hz harmonic", p.Freq)
		}
	}
}

func TestModeCountTrimodal(t *testing.T) {
	tr := trace.New()
	add := func(n int, size uint16) {
		for i := 0; i < n; i++ {
			tr.Packets = append(tr.Packets, trace.Packet{
				Time: sim.Time(len(tr.Packets)) * sim.Time(sim.Millisecond), Size: size,
			})
		}
	}
	add(400, 58)
	add(300, 1518)
	add(100, 700)
	if got := ModeCount(tr, 0.02); got != 3 {
		t.Errorf("ModeCount = %d, want 3", got)
	}
}

func TestBursts(t *testing.T) {
	tr := burstyTrace(5, 500, 4, 1000, 200)
	bs := Bursts(tr, 50*sim.Millisecond)
	if bs.Count != 10 {
		t.Errorf("bursts = %d, want 10", bs.Count)
	}
	if math.Abs(bs.MeanBytes-4000) > 1 {
		t.Errorf("mean burst bytes = %v", bs.MeanBytes)
	}
	if bs.SDBytes > 1 {
		t.Errorf("burst size SD = %v, want 0 (constant bursts)", bs.SDBytes)
	}
	if math.Abs(bs.MeanPeriodSec-0.5) > 0.01 {
		t.Errorf("burst period = %v, want 0.5", bs.MeanPeriodSec)
	}
	if Bursts(trace.New(), sim.Second).Count != 0 {
		t.Error("bursts of empty trace")
	}
}

func TestConnectionCorrelation(t *testing.T) {
	// Two connections bursting in phase → high correlation; out of phase
	// → low.
	mk := func(offsetMs int) *trace.Trace {
		tr := trace.New()
		for b := 0; b < 50; b++ {
			base := sim.Time(sim.Duration(b*200) * sim.Millisecond)
			for i := 0; i < 3; i++ {
				tr.Packets = append(tr.Packets,
					trace.Packet{Time: base.Add(sim.Duration(i) * sim.Millisecond), Size: 1000, Src: 0, Dst: 1},
					trace.Packet{Time: base.Add(sim.Duration(offsetMs+i) * sim.Millisecond), Size: 1000, Src: 2, Dst: 3},
				)
			}
		}
		return tr
	}
	pairs := [][2]int{{0, 1}, {2, 3}}
	inPhase := ConnectionCorrelation(mk(0), pairs, PaperWindow)
	outPhase := ConnectionCorrelation(mk(100), pairs, PaperWindow)
	if inPhase < 0.9 {
		t.Errorf("in-phase correlation = %v", inPhase)
	}
	if outPhase > 0.1 {
		t.Errorf("out-of-phase correlation = %v", outPhase)
	}
}

// scanConnectionCorrelation is the reference ConnectionCorrelation must
// equal to the last bit: one full scan of the trace per listed pair, then
// stats.PearsonR folded over i < j in order.
func scanConnectionCorrelation(t *trace.Trace, pairs [][2]int, bin sim.Duration) float64 {
	if len(t.Packets) == 0 {
		return 0
	}
	t0 := t.Packets[0].Time
	n := int(t.Packets[len(t.Packets)-1].Time.Sub(t0)/bin) + 1
	series := make([][]float64, len(pairs))
	for i, pr := range pairs {
		series[i] = make([]float64, n)
		for _, p := range t.Packets {
			if int(p.Src) == pr[0] && int(p.Dst) == pr[1] {
				series[i][int(p.Time.Sub(t0)/bin)] += float64(p.Size)
			}
		}
	}
	var sum float64
	var count int
	for i := range series {
		for j := i + 1; j < len(series); j++ {
			sum += stats.PearsonR(series[i], series[j])
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// TestConnectionCorrelationMatchesPerPairScan: the one-pass binning must
// give the per-pair scan's answer for any pair list — in any order, with
// pairs the trace never carries (in and out of the address range), pairs
// listed twice, one pair, and none.
func TestConnectionCorrelationMatchesPerPairScan(t *testing.T) {
	tr := allToAllTrace(6, 9)
	all := tr.Pairs()
	for _, c := range []struct {
		name  string
		pairs [][2]int
	}{
		{"none", nil},
		{"one", all[:1]},
		{"all", all},
		{"unsorted", [][2]int{all[7], all[2], all[19], all[0], all[11]}},
		{"absent", [][2]int{all[0], {40, 41}, all[1], {-1, 2}, {1 << 20, 0}, all[2]}},
		{"only absent", [][2]int{{40, 41}, {41, 40}}},
		{"listed twice", [][2]int{all[3], all[4], all[3], all[5], all[3]}},
	} {
		got := ConnectionCorrelation(tr, c.pairs, CorrelationBin)
		want := scanConnectionCorrelation(tr, c.pairs, CorrelationBin)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: got %v, per-pair scan %v", c.name, got, want)
		}
	}
	if got := ConnectionCorrelation(trace.New(), all, CorrelationBin); got != 0 {
		t.Errorf("empty trace: got %v", got)
	}
}

func TestPhaseCoincidence(t *testing.T) {
	// Three connections; in each burst all three fire → coincidence 1.
	tr := trace.New()
	conns := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	for b := 0; b < 10; b++ {
		base := sim.Time(sim.Duration(b) * sim.Second)
		for i, c := range conns {
			tr.Packets = append(tr.Packets, trace.Packet{
				Time: base.Add(sim.Duration(i) * sim.Millisecond),
				Size: 1000, Src: uint16(c[0]), Dst: uint16(c[1]),
			})
		}
	}
	if got := PhaseCoincidence(tr, conns, 100*sim.Millisecond); got != 1 {
		t.Errorf("full coincidence = %v", got)
	}
	// Alternating bursts: only one connection per burst → 1/3.
	tr2 := trace.New()
	for b := 0; b < 12; b++ {
		c := conns[b%3]
		tr2.Packets = append(tr2.Packets, trace.Packet{
			Time: sim.Time(sim.Duration(b) * sim.Second),
			Size: 1000, Src: uint16(c[0]), Dst: uint16(c[1]),
		})
	}
	got := PhaseCoincidence(tr2, conns, 100*sim.Millisecond)
	if got < 0.3 || got > 0.4 {
		t.Errorf("alternating coincidence = %v, want 1/3", got)
	}
	if PhaseCoincidence(trace.New(), conns, sim.Second) != 0 {
		t.Error("empty trace coincidence != 0")
	}
	if PhaseCoincidence(tr, nil, sim.Second) != 0 {
		t.Error("no-pairs coincidence != 0")
	}
}
