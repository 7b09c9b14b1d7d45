package analysis

import (
	"fxnet/internal/dsp"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

// Report is the per-program characterization of the paper's figures 3–7
// (and 8–11 for AIRSHED).
type Report struct {
	Program string

	// Figure 3 / 8: packet sizes (bytes).
	AggSize  stats.Summary
	ConnSize stats.Summary // zero Summary when no representative connection

	// Figure 4 / 9: interarrival times (ms).
	AggInterarrival  stats.Summary
	ConnInterarrival stats.Summary

	// Figure 5 / §6.2: average bandwidth (KB/s).
	AggKBps  float64
	ConnKBps float64

	// Figure 6 / 10: instantaneous bandwidth (10 ms bins).
	AggSeries  []float64
	ConnSeries []float64
	SeriesDT   float64

	// Figure 7 / 11: power spectra.
	AggSpectrum  *dsp.Spectrum
	ConnSpectrum *dsp.Spectrum

	// Packet-size modality (trimodal for SOR/2DFFT/HIST).
	SizeModes int

	// Mean pairwise correlation of per-connection bandwidth (burst-level
	// bins).
	Correlation float64

	// Coincidence is the mean fraction of data-bearing connections active
	// in each communication phase — the paper's "correlated traffic along
	// many connections" at phase granularity.
	Coincidence float64
}

// CorrelationBin is the window used for the connection-correlation
// statistic: at the 10 ms scale the shared medium serializes connections
// (mutual exclusion looks like anti-correlation); the paper's in-phase
// claim is about communication phases, so correlate at 250 ms.
const CorrelationBin = 250 * sim.Millisecond

// CoincidenceGap is the idle gap that separates communication phases for
// the phase-coincidence statistic.
const CoincidenceGap = 100 * sim.Millisecond

// CharacterizeTrace computes the full report for a retained trace
// by folding its chunks, in order, into the StreamCharacterizer a live
// run folds into — the one implementation of the Report.
// repConn is the program's representative connection, or (-1, -1).
func CharacterizeTrace(tr *trace.Trace, program string, repConn [2]int) *Report {
	sc := NewStreamCharacterizer(program, repConn)
	for _, ch := range tr.Chunks() {
		sc.Fold(ch)
	}
	return sc.Report()
}

// CharacterizeTracePool is CharacterizeTrace; the pool is ignored. It
// stays only until bench/sim.go's analysis.pool_speedup probe, its one
// caller, is dropped (ROADMAP item 3).
func CharacterizeTracePool(tr *trace.Trace, program string, repConn [2]int, _ *dsp.Pool) *Report {
	return CharacterizeTrace(tr, program, repConn)
}
