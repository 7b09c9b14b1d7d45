// Package analysis computes the paper's trace characterizations: packet
// size and interarrival statistics (figures 3, 4, 8, 9), average
// bandwidth (figure 5), the 10 ms-windowed instantaneous average
// bandwidth (figures 6 and 10), and its periodogram power spectrum
// (figures 7 and 11).
package analysis

import (
	"fxnet/internal/dsp"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

// PaperWindow is the paper's 10 ms averaging interval.
const PaperWindow = 10 * sim.Millisecond

// Sample is one point of an instantaneous-bandwidth series.
type Sample struct {
	T    sim.Time // window end
	KBps float64
}

// SizeStats summarizes packet sizes in bytes.
func SizeStats(t *trace.Trace) stats.Summary {
	return stats.Summarize(t.Sizes())
}

// InterarrivalStats summarizes packet interarrival times in milliseconds.
func InterarrivalStats(t *trace.Trace) stats.Summary {
	return stats.Summarize(t.Interarrivals())
}

// AverageBandwidthKBps is total captured bytes over the trace duration,
// in KB/s (the paper's figure 5 quantity). Traces with fewer than two
// packets report 0.
func AverageBandwidthKBps(t *trace.Trace) float64 {
	d := t.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(t.TotalBytes()) / d / 1000
}

// SlidingBandwidth computes the instantaneous average bandwidth with a
// sliding window that moves a single packet at a time, as the paper's
// figure 6 plots: sample i is the number of bytes in (tᵢ−window, tᵢ]
// divided by the window.
func SlidingBandwidth(t *trace.Trace, window sim.Duration) []Sample {
	if len(t.Packets) == 0 || window <= 0 {
		return nil
	}
	out := make([]Sample, len(t.Packets))
	var sum int64
	lo := 0
	for i, p := range t.Packets {
		sum += int64(p.Size)
		for t.Packets[lo].Time <= p.Time.Add(-window) {
			sum -= int64(t.Packets[lo].Size)
			lo++
		}
		out[i] = Sample{T: p.Time, KBps: float64(sum) / window.Seconds() / 1000}
	}
	return out
}

// BinnedBandwidth computes the bandwidth along static intervals of the
// given width — the evenly spaced series the paper feeds to the power
// spectrum ("a close approximation to the sliding window bandwidth").
// The series starts at the first packet's time, and dt is the bin width
// in seconds.
func BinnedBandwidth(t *trace.Trace, bin sim.Duration) (series []float64, dt float64) {
	if len(t.Packets) == 0 || bin <= 0 {
		return nil, bin.Seconds()
	}
	t0 := t.Packets[0].Time
	last := t.Packets[len(t.Packets)-1].Time
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

// Spectrum computes the periodogram of the binned instantaneous
// bandwidth — the paper's figures 7 and 11. The mean is removed (and
// retained as the DC coefficient) so the periodic structure dominates,
// and the series is zero-padded to a power of two.
func Spectrum(t *trace.Trace, bin sim.Duration) *dsp.Spectrum {
	series, dt := BinnedBandwidth(t, bin)
	return dsp.Periodogram(series, dt, dsp.PeriodogramOptions{
		RemoveMean: true,
		PadPow2:    true,
	})
}

// SpectrumOfSeries computes the same periodogram from an existing
// bandwidth series.
func SpectrumOfSeries(series []float64, dt float64) *dsp.Spectrum {
	return dsp.Periodogram(series, dt, dsp.PeriodogramOptions{
		RemoveMean: true,
		PadPow2:    true,
	})
}

// SpectrumInto is SpectrumOfSeries computing into a reusable dsp
// workspace: analyses that take spectra in a loop (sliding windows,
// parameter sweeps) reuse one Workspace and allocate nothing per
// iteration. The returned spectrum aliases ws and is overwritten by the
// next call.
func SpectrumInto(ws *dsp.Workspace, series []float64, dt float64) *dsp.Spectrum {
	return ws.Periodogram(series, dt, dsp.PeriodogramOptions{
		RemoveMean: true,
		PadPow2:    true,
	})
}

// Window is one segment of a fault-bracketed trace with its spectrum —
// the unit of the pre/during/post comparison.
type Window struct {
	Label    string
	Trace    *trace.Trace
	Spectrum *dsp.Spectrum
}

// PreDuringPost splits the trace around the absolute virtual-time fault
// window [start, end) and computes each segment's bandwidth spectrum with
// the given bin: the paper's §6.1 before/after methodology, applied to a
// scripted fault instead of a serendipitous OS stall. Windows with no
// packets carry an empty spectrum.
func PreDuringPost(t *trace.Trace, start, end sim.Time, bin sim.Duration) (pre, during, post Window) {
	cut := func(label string, lo, hi sim.Time) Window {
		tr := t.Filter(func(p trace.Packet) bool { return p.Time >= lo && p.Time < hi })
		return Window{Label: label, Trace: tr, Spectrum: Spectrum(tr, bin)}
	}
	const horizon = sim.Time(1) << 62
	return cut("pre", 0, start), cut("during", start, end), cut("post", end, horizon)
}

// FaultWindow reports the span of the trace's fault marks — the earliest
// and latest annotated instants — and ok=false when the trace carries no
// marks.
func FaultWindow(t *trace.Trace) (start, end sim.Time, ok bool) {
	if len(t.Marks) == 0 {
		return 0, 0, false
	}
	start, end = t.Marks[0].Time, t.Marks[0].Time
	for _, m := range t.Marks[1:] {
		if m.Time < start {
			start = m.Time
		}
		if m.Time > end {
			end = m.Time
		}
	}
	return start, end, true
}

// SizeHistogram bins packet sizes over the valid Ethernet range.
func SizeHistogram(t *trace.Trace, bins int) *stats.Histogram {
	return stats.NewHistogram(t.Sizes(), 0, 1600, bins)
}

// ModeCount reports the number of packet-size modes holding at least
// minFrac of the packets — 3 for the paper's "trimodal" kernels.
func ModeCount(t *trace.Trace, minFrac float64) int {
	return len(SizeHistogram(t, 32).Modes(minFrac))
}

// BurstStats summarizes the burst structure of a trace: contiguous runs
// of packets separated by gaps of at least gap.
type BurstStats struct {
	Count         int
	MeanBytes     float64
	SDBytes       float64
	MeanPeriodSec float64 // spacing between burst starts
	MeanLengthSec float64
}

// Bursts segments the trace into bursts separated by idle gaps ≥ gap and
// summarizes them. The paper's "constant burst sizes" claim corresponds
// to SDBytes ≪ MeanBytes.
func Bursts(t *trace.Trace, gap sim.Duration) BurstStats {
	if len(t.Packets) == 0 {
		return BurstStats{}
	}
	var sizes []float64
	var starts []sim.Time
	var lengths []float64
	curBytes := int64(t.Packets[0].Size)
	curStart := t.Packets[0].Time
	lastT := t.Packets[0].Time
	flush := func(end sim.Time) {
		sizes = append(sizes, float64(curBytes))
		starts = append(starts, curStart)
		lengths = append(lengths, end.Sub(curStart).Seconds())
	}
	for _, p := range t.Packets[1:] {
		if p.Time.Sub(lastT) >= gap {
			flush(lastT)
			curBytes = 0
			curStart = p.Time
		}
		curBytes += int64(p.Size)
		lastT = p.Time
	}
	flush(lastT)

	bs := BurstStats{Count: len(sizes)}
	s := stats.Summarize(sizes)
	bs.MeanBytes, bs.SDBytes = s.Mean, s.SD
	bs.MeanLengthSec = stats.Mean(lengths)
	if len(starts) > 1 {
		var gaps []float64
		for i := 1; i < len(starts); i++ {
			gaps = append(gaps, starts[i].Sub(starts[i-1]).Seconds())
		}
		bs.MeanPeriodSec = stats.Mean(gaps)
	}
	return bs
}

// PhaseCoincidence quantifies the paper's "correlated traffic along many
// connections" at the granularity it is claimed: communication phases.
// The aggregate trace is segmented into bursts separated by idle gaps ≥
// gap; for each burst, the fraction of the given connections that carry
// at least one packet is computed, and the mean fraction over bursts is
// returned. Synchronized collective patterns score near 1.
func PhaseCoincidence(t *trace.Trace, pairs [][2]int, gap sim.Duration) float64 {
	if len(t.Packets) == 0 || len(pairs) == 0 {
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
	last := t.Packets[0].Time
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

// ConnectionCorrelation computes the mean pairwise Pearson correlation of
// the binned bandwidth series of the given connections — the paper's
// "correlated traffic along many connections" claim quantified. Every
// series spans the whole trace: bins start at the first packet and all
// series have the aggregate bin count, so every pair of connections is
// scored over the same bins. The series are binned in one pass over the
// packets and folded by stats.MeanPairwisePearson, whose contract covers
// the degenerate cases: fewer than two pairs (or an empty trace) score 0,
// a pair absent from the trace is an all-zero series that contributes 0
// and still counts, and a pair listed twice is two identical series.
func ConnectionCorrelation(t *trace.Trace, pairs [][2]int, bin sim.Duration) float64 {
	if len(t.Packets) == 0 {
		return 0
	}
	t0 := t.Packets[0].Time
	end := t.Packets[len(t.Packets)-1].Time
	n := int(end.Sub(t0)/bin) + 1
	series := seriesRows(len(pairs), n)
	rowOf := make(map[[2]int]int, len(pairs))
	for i, pr := range pairs {
		if _, listed := rowOf[pr]; !listed {
			rowOf[pr] = i
		}
	}
	for _, p := range t.Packets {
		if i, ok := rowOf[[2]int{int(p.Src), int(p.Dst)}]; ok {
			series[i][int(p.Time.Sub(t0)/bin)] += float64(p.Size)
		}
	}
	for i, pr := range pairs {
		if first := rowOf[pr]; first != i {
			copy(series[i], series[first])
		}
	}
	return stats.MeanPairwisePearson(series)
}

// seriesRows returns k zeroed series of n bins each, rows of one backing
// array so the pairwise kernel walks them contiguously.
func seriesRows(k, n int) [][]float64 {
	flat := make([]float64, k*n)
	rows := make([][]float64, k)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n]
	}
	return rows
}
