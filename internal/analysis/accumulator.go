package analysis

import (
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// Accumulator folds packets into the fixed-bin bandwidth series as they
// are captured: the bandwidth along static intervals of the bin width,
// starting at the first packet's time. It holds one float64 per elapsed
// window, so an analysis-only run costs O(windows) memory however many
// packets flow. The per-bin additions happen in capture order, so the
// series depends on the packet sequence alone (BinnedBandwidth is this
// fold over a materialized trace).
//
// The zero value is not ready; use NewAccumulator. Accumulator is a
// trace.Sink, so it can be attached directly to a Collector.
type Accumulator struct {
	bin     sim.Duration
	t0      sim.Time
	last    sim.Time
	sums    []float64 // raw per-bin byte sums, unscaled
	n       int64     // packets folded
	started bool
}

// NewAccumulator returns an accumulator with the given window width
// (PaperWindow for the paper's 10 ms series).
func NewAccumulator(bin sim.Duration) *Accumulator {
	return &Accumulator{bin: bin}
}

// Add folds one packet. This is the per-packet hot path: one division,
// one float add, and — amortized over a run — zero allocations (the bin
// array grows by appends that only occasionally move it).
func (a *Accumulator) Add(t sim.Time, size uint16) {
	if !a.started {
		a.started = true
		a.t0 = t
	}
	idx := int(t.Sub(a.t0) / a.bin)
	for len(a.sums) <= idx {
		a.sums = append(a.sums, 0)
	}
	a.sums[idx] += float64(size)
	a.last = t
	a.n++
}

// Fold implements trace.Sink.
func (a *Accumulator) Fold(ch *trace.Chunk) {
	for i, t := range ch.Time {
		a.Add(t, ch.Size[i])
	}
}

// N reports the number of packets folded so far.
func (a *Accumulator) N() int64 { return a.n }

// Series returns the bandwidth series in KB/s and the bin width in
// seconds. The returned slice is freshly allocated; the accumulator can
// keep folding afterwards.
func (a *Accumulator) Series() (series []float64, dt float64) {
	if a.n == 0 || a.bin <= 0 {
		return nil, a.bin.Seconds()
	}
	n := int(a.last.Sub(a.t0)/a.bin) + 1
	series = make([]float64, n)
	copy(series, a.sums[:n])
	scale := 1 / a.bin.Seconds() / 1000
	for i := range series {
		series[i] *= scale
	}
	return series, a.bin.Seconds()
}
