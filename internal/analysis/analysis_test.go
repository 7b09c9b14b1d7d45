package analysis

import (
	"math"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
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
			t.Append(trace.Packet{
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
			tr.Append(trace.Packet{
				Time: sim.Time(tr.Len()) * sim.Time(sim.Millisecond), Size: size,
			})
		}
	}
	add(400, 58)
	add(300, 1518)
	add(100, 700)
	if got := refModeCount(tr, 0.02); got != 3 {
		t.Errorf("reference mode count = %d, want 3", got)
	}
	var h histCounts
	for _, p := range tr.Packets {
		h.add(float64(p.Size))
	}
	if got := len(h.histogram().Modes(0.02)); got != 3 {
		t.Errorf("fold mode count = %d, want 3", got)
	}
}

func TestConnectionCorrelation(t *testing.T) {
	// Two connections bursting in phase → high correlation; out of phase
	// → low.
	mk := func(offsetMs int) *trace.Trace {
		var pkts []trace.Packet
		for b := 0; b < 50; b++ {
			base := sim.Time(sim.Duration(b*200) * sim.Millisecond)
			for i := 0; i < 3; i++ {
				pkts = append(pkts,
					trace.Packet{Time: base.Add(sim.Duration(i) * sim.Millisecond), Size: 1000, Src: 0, Dst: 1},
					trace.Packet{Time: base.Add(sim.Duration(offsetMs+i) * sim.Millisecond), Size: 1000, Src: 2, Dst: 3},
				)
			}
		}
		return trace.FromPackets(pkts)
	}
	pairs := [][2]int{{0, 1}, {2, 3}}
	inPhase := foldCorrelation(mk(0), PaperWindow)
	outPhase := foldCorrelation(mk(100), PaperWindow)
	if inPhase < 0.9 {
		t.Errorf("in-phase correlation = %v", inPhase)
	}
	if outPhase > 0.1 {
		t.Errorf("out-of-phase correlation = %v", outPhase)
	}
	if ref := refConnectionCorrelation(mk(0), pairs, PaperWindow); math.Float64bits(inPhase) != math.Float64bits(ref) {
		t.Errorf("in-phase: fold %v, reference %v", inPhase, ref)
	}
	if ref := refConnectionCorrelation(mk(100), pairs, PaperWindow); math.Float64bits(outPhase) != math.Float64bits(ref) {
		t.Errorf("out-of-phase: fold %v, reference %v", outPhase, ref)
	}
}

// foldCorrelation streams a trace through the fold's correlation
// tracker at the given bin, as addPacket does at CorrelationBin.
func foldCorrelation(tr *trace.Trace, bin sim.Duration) float64 {
	if tr.Len() == 0 {
		return 0
	}
	c := corrTracker{bin: bin}
	var pairs pairSlots
	t0 := tr.At(0).Time
	for _, p := range tr.Packets {
		if p.Dst != trace.Broadcast {
			c.add(t0, p.Time, pairs.of(p.Src, p.Dst), p.Size)
		}
	}
	return c.correlation(t0, tr.At(tr.Len()-1).Time, pairs.keys)
}

// TestConnectionCorrelationMatchesPerPairScan: the fold's one-pass
// binning must give the per-pair scan's answer to the last bit on every
// shape of trace — no connection, one, many, a connection whose only
// packets fall in the last bin, and broadcasts (which are no connection
// and must not be scored) in the mix.
func TestConnectionCorrelationMatchesPerPairScan(t *testing.T) {
	one := burstyTrace(3, 300, 4, 700, 200)
	many := allToAllTrace(6, 9)
	late := allToAllTrace(4, 5)
	late.Append(trace.Packet{
		Time: late.At(late.Len() - 1).Time.Add(3 * CorrelationBin), Size: 900, Src: 9, Dst: 8,
	})
	var pkts []trace.Packet
	for i, p := range allToAllTrace(5, 7).Packets {
		if i%11 == 0 {
			p.Dst = trace.Broadcast
		}
		pkts = append(pkts, p)
	}
	bcast := trace.FromPackets(pkts)
	for _, c := range []struct {
		name  string
		tr    *trace.Trace
		pairs int
	}{
		{"none", trace.New(), 0},
		{"one", one, 1},
		{"many", many, 30},
		{"late", late, 13},
		{"broadcast", bcast, 20},
	} {
		pairs := hostPairs(c.tr)
		if len(pairs) != c.pairs {
			t.Fatalf("%s: trace has %d connections, want %d", c.name, len(pairs), c.pairs)
		}
		got := foldCorrelation(c.tr, CorrelationBin)
		want := refConnectionCorrelation(c.tr, pairs, CorrelationBin)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: fold %v, per-pair scan %v", c.name, got, want)
		}
		if c.pairs > 1 && got == 0 {
			t.Errorf("%s: correlation 0, the trace does not exercise the statistic", c.name)
		}
	}
}

func TestPhaseCoincidence(t *testing.T) {
	// Three connections; in each burst all three fire → coincidence 1.
	tr := trace.New()
	conns := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	for b := 0; b < 10; b++ {
		base := sim.Time(sim.Duration(b) * sim.Second)
		for i, c := range conns {
			tr.Append(trace.Packet{
				Time: base.Add(sim.Duration(i) * sim.Millisecond),
				Size: 1000, Src: uint16(c[0]), Dst: uint16(c[1]),
			})
		}
	}
	if got := foldCoincidence(tr, 100*sim.Millisecond); got != 1 {
		t.Errorf("full coincidence = %v", got)
	}
	if ref := refPhaseCoincidence(tr, conns, 100*sim.Millisecond); ref != 1 {
		t.Errorf("reference full coincidence = %v", ref)
	}
	// Alternating bursts: only one connection per burst → 1/3.
	tr2 := trace.New()
	for b := 0; b < 12; b++ {
		c := conns[b%3]
		tr2.Append(trace.Packet{
			Time: sim.Time(sim.Duration(b) * sim.Second),
			Size: 1000, Src: uint16(c[0]), Dst: uint16(c[1]),
		})
	}
	got := foldCoincidence(tr2, 100*sim.Millisecond)
	if got < 0.3 || got > 0.4 {
		t.Errorf("alternating coincidence = %v, want 1/3", got)
	}
	if ref := refPhaseCoincidence(tr2, conns, 100*sim.Millisecond); math.Float64bits(got) != math.Float64bits(ref) {
		t.Errorf("alternating: fold %v, reference %v", got, ref)
	}
	if foldCoincidence(trace.New(), sim.Second) != 0 {
		t.Error("empty trace coincidence != 0")
	}
	// One connection is no coincidence to speak of: the Report scores
	// it 0, as it does a trace with no data connection at all.
	if foldCoincidence(burstyTrace(5, 500, 4, 1000, 200), 100*sim.Millisecond) != 0 {
		t.Error("one-connection coincidence != 0")
	}
}

// foldCoincidence streams a trace through the fold's coincidence
// tracker at the given gap, as addPacket does for TCP-data packets at
// CoincidenceGap.
func foldCoincidence(tr *trace.Trace, gap sim.Duration) float64 {
	c := coinTracker{gap: gap}
	var pairs pairSlots
	for _, p := range tr.Packets {
		c.add(p.Time, pairs.of(p.Src, p.Dst))
	}
	return c.coincidence()
}
