package analysis

import (
	"math"
	"testing"

	"fxnet/internal/dsp"
	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

// The naive whole-trace definition of every Report field: the batch
// characterizer that was production code until CharacterizeTrace became
// a replay through the fold, kept verbatim as the oracle the fold is held
// to. Each statistic walks the materialized trace on its own — two-pass
// stats.Summarize over the full sample, one filtered copy of the trace
// per connection, burst-by-burst coincidence — so nothing here shares an
// accumulator, or an arithmetic shortcut, with stream.go.

// refSizes returns the packet sizes as float64s.
func refSizes(t *trace.Trace) []float64 {
	out := make([]float64, t.Len())
	for i, p := range t.Packets {
		out[i] = float64(p.Size)
	}
	return out
}

// refInterarrivals returns successive packet spacing in milliseconds.
func refInterarrivals(t *trace.Trace) []float64 {
	if t.Len() < 2 {
		return nil
	}
	out := make([]float64, 0, t.Len()-1)
	var prev sim.Time
	for i, p := range t.Packets {
		if i > 0 {
			out = append(out, p.Time.Sub(prev).Milliseconds())
		}
		prev = p.Time
	}
	return out
}

func refSizeStats(t *trace.Trace) stats.Summary {
	return stats.Summarize(refSizes(t))
}

func refInterarrivalStats(t *trace.Trace) stats.Summary {
	return stats.Summarize(refInterarrivals(t))
}

func refAverageBandwidthKBps(t *trace.Trace) float64 {
	if t.Len() < 2 {
		return 0
	}
	d := t.At(t.Len() - 1).Time.Sub(t.At(0).Time).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(t.TotalBytes()) / d / 1000
}

func refBinnedBandwidth(t *trace.Trace, bin sim.Duration) (series []float64, dt float64) {
	if t.Len() == 0 || bin <= 0 {
		return nil, bin.Seconds()
	}
	t0 := t.At(0).Time
	last := t.At(t.Len() - 1).Time
	n := int(last.Sub(t0)/bin) + 1
	series = make([]float64, n)
	for _, p := range t.Packets {
		idx := int(p.Time.Sub(t0) / bin)
		series[idx] += float64(p.Size)
	}
	scale := 1 / bin.Seconds() / 1000
	for i := range series {
		series[i] *= scale
	}
	return series, bin.Seconds()
}

// refModeCount reports the number of packet-size modes holding at least
// minFrac of the packets — 3 for the paper's "trimodal" kernels.
func refModeCount(t *trace.Trace, minFrac float64) int {
	h := &stats.Histogram{Lo: 0, Hi: 1600, Counts: make([]int, 32)}
	for _, x := range refSizes(t) {
		switch {
		case x < h.Lo:
			h.Under++
		case x >= h.Hi:
			h.Over++
		default:
			h.Counts[int(x/50)]++
		}
	}
	return len(h.Modes(minFrac))
}

// refPhaseCoincidence segments the aggregate trace into bursts separated
// by idle gaps ≥ gap; for each burst, the fraction of the given
// connections that carry at least one packet is computed, and the mean
// fraction over bursts is returned.
func refPhaseCoincidence(t *trace.Trace, pairs [][2]int, gap sim.Duration) float64 {
	if t.Len() == 0 || len(pairs) == 0 {
		return 0
	}
	pairIdx := make(map[[2]int]int, len(pairs))
	for i, p := range pairs {
		pairIdx[p] = i
	}
	seen := make([]bool, len(pairs))
	var fracs []float64
	flush := func() {
		n := 0
		for i := range seen {
			if seen[i] {
				n++
				seen[i] = false
			}
		}
		fracs = append(fracs, float64(n)/float64(len(pairs)))
	}
	last := t.At(0).Time
	for i, p := range t.Packets {
		if i > 0 && p.Time.Sub(last) >= gap {
			flush()
		}
		if idx, ok := pairIdx[[2]int{int(p.Src), int(p.Dst)}]; ok {
			seen[idx] = true
		}
		last = p.Time
	}
	flush()
	// Drop the first and last partial phases when there are enough.
	if len(fracs) > 2 {
		fracs = fracs[1 : len(fracs)-1]
	}
	return stats.Mean(fracs)
}

// refConnectionCorrelation is the mean pairwise Pearson correlation of
// the binned bandwidth series of the given connections: one full scan of
// the trace per listed pair, every series spanning the aggregate bin
// count from the first packet, then stats.PearsonR folded over i < j in
// order. A pair absent from the trace is an all-zero series that
// contributes 0 and still counts; fewer than two pairs score 0.
func refConnectionCorrelation(t *trace.Trace, pairs [][2]int, bin sim.Duration) float64 {
	if t.Len() == 0 {
		return 0
	}
	t0 := t.At(0).Time
	n := int(t.At(t.Len()-1).Time.Sub(t0)/bin) + 1
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

// hostPairs lists a trace's host-to-host connections (broadcast
// pseudo-destination excluded), sorted — the pairs the Report's
// Correlation is defined over.
func hostPairs(tr *trace.Trace) [][2]int {
	var pairs [][2]int
	for _, pr := range tr.Pairs() {
		if pr[1] != int(trace.Broadcast) {
			pairs = append(pairs, pr)
		}
	}
	return pairs
}

// ReferenceReport is the five-section batch characterization, exported
// to the external test package (which can import internal/core without
// a cycle) the way an export_test.go would.
func ReferenceReport(tr *trace.Trace, program string, repConn [2]int) *Report {
	rep := &Report{Program: program}

	rep.AggSize = refSizeStats(tr)
	rep.AggInterarrival = refInterarrivalStats(tr)
	rep.AggKBps = refAverageBandwidthKBps(tr)
	rep.SizeModes = refModeCount(tr, 0.005)

	rep.AggSeries, rep.SeriesDT = refBinnedBandwidth(tr, PaperWindow)
	rep.AggSpectrum = SpectrumOfSeries(rep.AggSeries, rep.SeriesDT)

	if repConn[0] >= 0 {
		conn := tr.Connection(repConn[0], repConn[1])
		rep.ConnSize = refSizeStats(conn)
		rep.ConnInterarrival = refInterarrivalStats(conn)
		rep.ConnKBps = refAverageBandwidthKBps(conn)
		rep.ConnSeries, _ = refBinnedBandwidth(conn, PaperWindow)
		rep.ConnSpectrum = SpectrumOfSeries(rep.ConnSeries, PaperWindow.Seconds())
	}

	rep.Correlation = refConnectionCorrelation(tr, hostPairs(tr), CorrelationBin)

	// Phase coincidence over TCP-data connections only (daemon
	// keepalives would dilute it).
	data := tr.Filter(func(p trace.Packet) bool {
		return p.Proto == ethernet.ProtoTCP && p.Flags&ethernet.FlagData != 0
	})
	if dataPairs := data.Pairs(); len(dataPairs) > 1 {
		rep.Coincidence = refPhaseCoincidence(data, dataPairs, CoincidenceGap)
	}
	return rep
}

// sameBits reports whether two series carry identical float64 bit
// patterns, position by position.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// CheckAgainstReference fails unless got, a Report out of the fold,
// equals the reference want: N/Min/Max/Mean of every summary, every
// series, both spectra, the bandwidths, Coincidence and SizeModes to the
// last bit; Correlation within corrTol (0: to the last bit; the pair
// statistic is exact only below stats' identityWork); and every SD — the
// one place the fold's moment form (E[x²] − E[x]²) and the two-pass
// definition round differently — within 1e-9 relative.
func CheckAgainstReference(t testing.TB, got, want *Report, corrTol float64) {
	t.Helper()
	if got.Program != want.Program {
		t.Errorf("Program %q, reference %q", got.Program, want.Program)
	}
	for _, s := range []struct {
		what      string
		got, want stats.Summary
	}{
		{"AggSize", got.AggSize, want.AggSize},
		{"ConnSize", got.ConnSize, want.ConnSize},
		{"AggInterarrival", got.AggInterarrival, want.AggInterarrival},
		{"ConnInterarrival", got.ConnInterarrival, want.ConnInterarrival},
	} {
		if s.got.N != s.want.N ||
			math.Float64bits(s.got.Min) != math.Float64bits(s.want.Min) ||
			math.Float64bits(s.got.Max) != math.Float64bits(s.want.Max) ||
			math.Float64bits(s.got.Mean) != math.Float64bits(s.want.Mean) {
			t.Errorf("%s N/Min/Max/Mean: %+v, reference %+v", s.what, s.got, s.want)
		}
		if math.Abs(s.got.SD-s.want.SD) > 1e-9*math.Max(1, math.Abs(s.want.SD)) {
			t.Errorf("%s SD %v, reference %v", s.what, s.got.SD, s.want.SD)
		}
	}
	for _, f := range []struct {
		what      string
		got, want float64
	}{
		{"AggKBps", got.AggKBps, want.AggKBps},
		{"ConnKBps", got.ConnKBps, want.ConnKBps},
		{"SeriesDT", got.SeriesDT, want.SeriesDT},
		{"Coincidence", got.Coincidence, want.Coincidence},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s %v (%#x), reference %v (%#x)", f.what,
				f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	if d := math.Abs(got.Correlation - want.Correlation); math.Float64bits(got.Correlation) != math.Float64bits(want.Correlation) &&
		!(corrTol > 0 && d <= corrTol) {
		t.Errorf("Correlation %v (%#x), reference %v (%#x): |Δ| = %.3g, tolerance %g", got.Correlation,
			math.Float64bits(got.Correlation), want.Correlation, math.Float64bits(want.Correlation), d, corrTol)
	}
	if got.SizeModes != want.SizeModes {
		t.Errorf("SizeModes %d, reference %d", got.SizeModes, want.SizeModes)
	}
	if !sameBits(got.AggSeries, want.AggSeries) {
		t.Errorf("AggSeries bits differ (len %d, reference %d)", len(got.AggSeries), len(want.AggSeries))
	}
	if !sameBits(got.ConnSeries, want.ConnSeries) {
		t.Errorf("ConnSeries bits differ (len %d, reference %d)", len(got.ConnSeries), len(want.ConnSeries))
	}
	checkSpectrumBits(t, "AggSpectrum", got.AggSpectrum, want.AggSpectrum)
	checkSpectrumBits(t, "ConnSpectrum", got.ConnSpectrum, want.ConnSpectrum)
}

func checkSpectrumBits(t testing.TB, what string, got, want *dsp.Spectrum) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("%s: nil %v, reference nil %v", what, got == nil, want == nil)
		return
	}
	if got == nil {
		return
	}
	if !sameBits(got.Freq, want.Freq) || !sameBits(got.Power, want.Power) {
		t.Errorf("%s: Freq/Power bits differ", what)
	}
	if len(got.Coeff) != len(want.Coeff) {
		t.Errorf("%s: %d coefficients, reference %d", what, len(got.Coeff), len(want.Coeff))
		return
	}
	for i, c := range got.Coeff {
		if math.Float64bits(real(c)) != math.Float64bits(real(want.Coeff[i])) ||
			math.Float64bits(imag(c)) != math.Float64bits(imag(want.Coeff[i])) {
			t.Errorf("%s: Coeff[%d] = %v, reference %v", what, i, c, want.Coeff[i])
			return
		}
	}
	if math.Float64bits(got.DF) != math.Float64bits(want.DF) ||
		math.Float64bits(got.DT) != math.Float64bits(want.DT) || got.N != want.N {
		t.Errorf("%s: DF/DT/N (%v,%v,%d), reference (%v,%v,%d)",
			what, got.DF, got.DT, got.N, want.DF, want.DT, want.N)
	}
}

// FoldInChunks folds a materialized trace through a sink in chunks of
// chunkLen packets, the way a collector would deliver it.
func FoldInChunks(s trace.Sink, tr *trace.Trace, chunkLen int) { feed(s, tr, chunkLen) }

// CheckPrimitivesMatchReport is the property that ties the per-quantity
// functions to the fold: each of them, taken alone on a trace (or on the
// representative connection's filtered trace), is the matching field of
// CharacterizeTrace's Report to the last bit, SD included.
func CheckPrimitivesMatchReport(t testing.TB, tr *trace.Trace, repConn [2]int) {
	t.Helper()
	rep := CharacterizeTrace(tr, "property", repConn)
	check := func(what string, tr *trace.Trace, size, inter stats.Summary, kbps float64, series []float64) {
		t.Helper()
		if got := SizeStats(tr); got != size {
			t.Errorf("%s: SizeStats %+v, Report %+v", what, got, size)
		}
		if got := InterarrivalStats(tr); got != inter {
			t.Errorf("%s: InterarrivalStats %+v, Report %+v", what, got, inter)
		}
		if got := AverageBandwidthKBps(tr); math.Float64bits(got) != math.Float64bits(kbps) {
			t.Errorf("%s: AverageBandwidthKBps %v, Report %v", what, got, kbps)
		}
		got, dt := BinnedBandwidth(tr, PaperWindow)
		if !sameBits(got, series) || dt != rep.SeriesDT {
			t.Errorf("%s: BinnedBandwidth (%d bins, dt %v) differs from the Report's (%d bins, dt %v)",
				what, len(got), dt, len(series), rep.SeriesDT)
		}
		checkSpectrumBits(t, what+" Spectrum", Spectrum(tr, PaperWindow), SpectrumOfSeries(series, rep.SeriesDT))
	}
	check("aggregate", tr, rep.AggSize, rep.AggInterarrival, rep.AggKBps, rep.AggSeries)
	if repConn[0] >= 0 {
		check("connection", tr.Connection(repConn[0], repConn[1]),
			rep.ConnSize, rep.ConnInterarrival, rep.ConnKBps, rep.ConnSeries)
	}
}
