// The characterizer: one single-pass fold computes every Report in the
// tree. A StreamCharacterizer is attached to a trace.Collector as a Sink
// and folds every captured packet into windowed aggregates during the
// simulation, so an analysis-only run never materializes the packet
// trace; a trace.Reader feeds it one decoded packet at a time through
// Observe, and CharacterizeTrace folds a retained trace's chunks into
// it. Memory is O(windows + connections), not O(packets).
//
// The fold is a function of the packet sequence alone: chunk boundaries,
// and whether the packets arrive live or replayed, cannot change a bit
// of the Report. reference_test.go holds it to the naive whole-trace
// definition of every statistic.
package analysis

import (
	"cmp"
	"math"
	"slices"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

// running accumulates streaming moments for a stats.Summary.
type running struct {
	n          int
	min, max   float64
	sum, sumsq float64
}

func (r *running) add(x float64) {
	if r.n == 0 || x < r.min {
		r.min = x
	}
	if r.n == 0 || x > r.max {
		r.max = x
	}
	r.n++
	r.sum += x
	r.sumsq += x * x
}

func (r *running) summary() stats.Summary {
	if r.n == 0 {
		return stats.Summary{}
	}
	mean := r.sum / float64(r.n)
	varc := r.sumsq/float64(r.n) - mean*mean
	if varc < 0 {
		varc = 0 // rounding can drive a near-constant sample negative
	}
	return stats.Summary{N: r.n, Min: r.min, Max: r.max, Mean: mean, SD: math.Sqrt(varc)}
}

// histCounts is a streaming stats.Histogram over the Ethernet size range.
type histCounts struct {
	counts []int
	under  int
	over   int
}

const histLo, histHi, histBins = 0, 1600, 32

func (h *histCounts) add(x float64) {
	if h.counts == nil {
		h.counts = make([]int, histBins)
	}
	w := float64(histHi-histLo) / float64(histBins)
	switch {
	case x < histLo:
		h.under++
	case x >= histHi:
		h.over++
	default:
		h.counts[int((x-histLo)/w)]++
	}
}

func (h *histCounts) histogram() *stats.Histogram {
	c := h.counts
	if c == nil {
		c = make([]int, histBins)
	}
	return &stats.Histogram{Lo: histLo, Hi: histHi, Counts: c, Under: h.under, Over: h.over}
}

// pairKey identifies a (src, dst) connection compactly.
type pairKey struct{ src, dst uint16 }

// pairSlots numbers connections in order of first appearance, so the
// per-connection trackers keep their state in slices indexed by slot and
// the fold resolves a packet's connection with one map access.
type pairSlots struct {
	slot map[pairKey]int
	keys []pairKey // by slot
}

func (p *pairSlots) of(src, dst uint16) int {
	k := pairKey{src, dst}
	s, ok := p.slot[k]
	if !ok {
		if p.slot == nil {
			p.slot = make(map[pairKey]int)
		}
		s = len(p.keys)
		p.slot[k] = s
		p.keys = append(p.keys, k)
	}
	return s
}

// grown returns xs extended with zero values to hold index i.
func grown[T any](xs []T, i int) []T {
	if i < len(xs) {
		return xs
	}
	return append(xs, make([]T, i+1-len(xs))...)
}

// corrTracker streams the per-connection bandwidth series that feed the
// connection-correlation statistic: the mean pairwise Pearson
// correlation of the binned bandwidth of every host-to-host connection,
// the paper's "correlated traffic along many connections" quantified.
// All series share the aggregate trace's first-packet origin and span
// the aggregate bin count, so every pair is scored over the same bins.
type corrTracker struct {
	bin    sim.Duration
	series [][]float64 // by pair slot; nil for a connection never added
}

func (c *corrTracker) add(t0, t sim.Time, slot int, size uint16) {
	c.series = grown(c.series, slot)
	s := &c.series[slot]
	idx := int(t.Sub(t0) / c.bin)
	for len(*s) <= idx {
		*s = append(*s, 0)
	}
	(*s)[idx] += float64(size)
}

// correlation finalizes the statistic: pairs sorted as trace.Pairs()
// sorts them, each series zero-padded to the aggregate bin count, and
// folded by stats.MeanPairwisePearson, whose contract covers the
// degenerate cases (fewer than two connections score 0). keys names
// each pair slot.
func (c *corrTracker) correlation(t0, last sim.Time, keys []pairKey) float64 {
	slots := make([]int, 0, len(c.series))
	for s, row := range c.series {
		if row != nil {
			slots = append(slots, s)
		}
	}
	slices.SortFunc(slots, func(a, b int) int {
		ka, kb := keys[a], keys[b]
		return cmp.Or(cmp.Compare(ka.src, kb.src), cmp.Compare(ka.dst, kb.dst))
	})
	n := int(last.Sub(t0)/c.bin) + 1
	series := seriesRows(len(slots), n)
	for i, s := range slots {
		copy(series[i], c.series[s])
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

// coinTracker streams the phase-coincidence statistic, the paper's
// "correlated traffic along many connections" at the granularity it is
// claimed: bursts of TCP-data packets separated by idle gaps ≥ gap, each
// scored by the fraction of data connections active in it, averaged
// with the first and last partial bursts dropped when there are enough.
// Synchronized collective patterns score near 1.
type coinTracker struct {
	gap     sim.Duration
	started bool
	last    sim.Time
	// stamp is, by pair slot, the last burst the connection carried data
	// in, numbering bursts from 1 (len(counts)+1 is the current one); 0
	// means it never has.
	stamp  []int
	cur    int // connections with data in the current burst
	all    int // connections that ever carried data
	counts []int
}

func (c *coinTracker) add(t sim.Time, slot int) {
	if c.started && t.Sub(c.last) >= c.gap {
		c.counts = append(c.counts, c.cur)
		c.cur = 0
	}
	c.stamp = grown(c.stamp, slot)
	if burst := len(c.counts) + 1; c.stamp[slot] != burst {
		if c.stamp[slot] == 0 {
			c.all++
		}
		c.stamp[slot] = burst
		c.cur++
	}
	c.last = t
	c.started = true
}

func (c *coinTracker) coincidence() float64 {
	if !c.started || c.all < 2 {
		return 0
	}
	counts := append(c.counts, c.cur)
	fracs := make([]float64, len(counts))
	for i, n := range counts {
		fracs[i] = float64(n) / float64(c.all)
	}
	if len(fracs) > 2 {
		fracs = fracs[1 : len(fracs)-1]
	}
	return stats.Mean(fracs)
}

// StreamCharacterizer folds captured packets into the full Report in a
// single pass. Attach it to a Collector with AddSink, run the
// simulation, Flush the collector, then call Report.
type StreamCharacterizer struct {
	program string
	repConn [2]int

	n          int64
	totalBytes int64
	first      sim.Time
	last       sim.Time

	aggSize  running
	aggInter running
	aggAcc   *Accumulator

	connN     int64
	connBytes int64
	connFirst sim.Time
	connLast  sim.Time
	connSize  running
	connInter running
	connAcc   *Accumulator

	hist  histCounts
	pairs pairSlots
	corr  corrTracker
	coin  coinTracker
}

// NewStreamCharacterizer builds a characterizer for one run. repConn is
// the program's representative connection, or (-1, -1) to skip the
// per-connection figures.
func NewStreamCharacterizer(program string, repConn [2]int) *StreamCharacterizer {
	return &StreamCharacterizer{
		program: program,
		repConn: repConn,
		aggAcc:  NewAccumulator(PaperWindow),
		connAcc: NewAccumulator(PaperWindow),
		corr:    corrTracker{bin: CorrelationBin},
		coin:    coinTracker{gap: CoincidenceGap},
	}
}

// Fold implements trace.Sink.
func (sc *StreamCharacterizer) Fold(ch *trace.Chunk) {
	for i, t := range ch.Time {
		sc.addPacket(t, ch.Size[i], ch.Src[i], ch.Dst[i], ch.Proto[i], ch.Flags[i])
	}
}

// addPacket is the per-packet fold. Packets must arrive in capture
// (time) order, as the collector delivers them.
func (sc *StreamCharacterizer) addPacket(t sim.Time, size uint16, src, dst uint16, proto ethernet.Proto, flags uint8) {
	v := float64(size)
	if sc.n == 0 {
		sc.first = t
	} else {
		sc.aggInter.add(t.Sub(sc.last).Milliseconds())
	}
	sc.n++
	sc.totalBytes += int64(size)
	sc.aggSize.add(v)
	sc.aggAcc.Add(t, size)
	sc.hist.add(v)

	if int(src) == sc.repConn[0] && int(dst) == sc.repConn[1] {
		if sc.connN == 0 {
			sc.connFirst = t
		} else {
			sc.connInter.add(t.Sub(sc.connLast).Milliseconds())
		}
		sc.connN++
		sc.connBytes += int64(size)
		sc.connSize.add(v)
		sc.connAcc.Add(t, size)
		sc.connLast = t
	}

	unicast := dst != trace.Broadcast
	data := proto == ethernet.ProtoTCP && flags&ethernet.FlagData != 0
	if unicast || data {
		slot := sc.pairs.of(src, dst)
		if unicast {
			sc.corr.add(sc.first, t, slot, size)
		}
		if data {
			sc.coin.add(t, slot)
		}
	}
	sc.last = t
}

// Observe folds one packet — the offline path, where a trace.Reader
// decodes packets from a file one at a time. Packets must arrive in
// capture (time) order.
func (sc *StreamCharacterizer) Observe(p trace.Packet) {
	sc.addPacket(p.Time, p.Size, p.Src, p.Dst, p.Proto, p.Flags)
}

// Duration is the time between the first and last packet folded.
func (sc *StreamCharacterizer) Duration() sim.Duration { return sc.last.Sub(sc.first) }

// kbps converts a byte total over a first..last span into the paper's
// KB/s figure (0 when the span carries fewer than two packets).
func kbps(bytes int64, n int64, first, last sim.Time) float64 {
	if n < 2 {
		return 0
	}
	d := last.Sub(first).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d / 1000
}

// Report finalizes the characterization. Call it once, after the
// collector has been flushed.
func (sc *StreamCharacterizer) Report() *Report {
	rep := &Report{
		Program:         sc.program,
		AggSize:         sc.aggSize.summary(),
		AggInterarrival: sc.aggInter.summary(),
		AggKBps:         kbps(sc.totalBytes, sc.n, sc.first, sc.last),
		SizeModes:       len(sc.hist.histogram().Modes(0.005)),
	}
	rep.AggSeries, rep.SeriesDT = sc.aggAcc.Series()

	rep.AggSpectrum = SpectrumOfSeries(rep.AggSeries, rep.SeriesDT)

	if sc.repConn[0] >= 0 {
		rep.ConnSize = sc.connSize.summary()
		rep.ConnInterarrival = sc.connInter.summary()
		rep.ConnKBps = kbps(sc.connBytes, sc.connN, sc.connFirst, sc.connLast)
		rep.ConnSeries, _ = sc.connAcc.Series()
		rep.ConnSpectrum = SpectrumOfSeries(rep.ConnSeries, PaperWindow.Seconds())
	}

	rep.Correlation = sc.corr.correlation(sc.first, sc.last, sc.pairs.keys)
	rep.Coincidence = sc.coin.coincidence()
	return rep
}
