// Package analysis computes the paper's trace characterizations: packet
// size and interarrival statistics (figures 3, 4, 8, 9), average
// bandwidth (figure 5), the 10 ms-windowed instantaneous average
// bandwidth (figures 6 and 10), and its periodogram power spectrum
// (figures 7 and 11).
//
// One fold computes all of it: StreamCharacterizer (stream.go), fed by a
// live capture, by a trace.Reader, or by CharacterizeTrace's fold of a
// retained trace's chunks. The per-quantity functions in this file compute
// through the same accumulators (running, kbps, Accumulator), so a
// quantity taken alone equals that field of the Report to the last bit.
package analysis

import (
	"fxnet/internal/dsp"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

// PaperWindow is the paper's 10 ms averaging interval.
const PaperWindow = 10 * sim.Millisecond

// SizeStats summarizes packet sizes in bytes.
func SizeStats(t *trace.Trace) stats.Summary {
	var r running
	for _, p := range t.Packets {
		r.add(float64(p.Size))
	}
	return r.summary()
}

// InterarrivalStats summarizes packet interarrival times in milliseconds.
func InterarrivalStats(t *trace.Trace) stats.Summary {
	var r running
	var prev sim.Time
	for i, p := range t.Packets {
		if i > 0 {
			r.add(p.Time.Sub(prev).Milliseconds())
		}
		prev = p.Time
	}
	return r.summary()
}

// AverageBandwidthKBps is total captured bytes over the trace duration,
// in KB/s (the paper's figure 5 quantity). Traces with fewer than two
// packets report 0.
func AverageBandwidthKBps(t *trace.Trace) float64 {
	n := t.Len()
	if n == 0 {
		return 0
	}
	return kbps(t.TotalBytes(), int64(n), t.At(0).Time, t.At(n-1).Time)
}

// BinnedBandwidth computes the bandwidth along static intervals of the
// given width — the evenly spaced series the paper feeds to the power
// spectrum ("a close approximation to the sliding window bandwidth").
// The series starts at the first packet's time, and dt is the bin width
// in seconds.
func BinnedBandwidth(t *trace.Trace, bin sim.Duration) (series []float64, dt float64) {
	if bin <= 0 {
		return nil, bin.Seconds()
	}
	acc := NewAccumulator(bin)
	for _, p := range t.Packets {
		acc.Add(p.Time, p.Size)
	}
	return acc.Series()
}

// Spectrum computes the periodogram of the binned instantaneous
// bandwidth — the paper's figures 7 and 11. The mean is removed (and
// retained as the DC coefficient) so the periodic structure dominates,
// and the series is zero-padded to a power of two.
func Spectrum(t *trace.Trace, bin sim.Duration) *dsp.Spectrum {
	return SpectrumOfSeries(BinnedBandwidth(t, bin))
}

// SpectrumOfSeries computes the same periodogram from an existing
// bandwidth series.
func SpectrumOfSeries(series []float64, dt float64) *dsp.Spectrum {
	return dsp.Periodogram(series, dt, dsp.PeriodogramOptions{
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
