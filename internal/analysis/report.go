package analysis

import (
	"fxnet/internal/dsp"
	"fxnet/internal/ethernet"
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

// CharacterizeTrace computes the full report for a materialized trace.
// repConn is the program's representative connection, or (-1, -1).
func CharacterizeTrace(tr *trace.Trace, program string, repConn [2]int) *Report {
	return CharacterizeTracePool(tr, program, repConn, nil)
}

// CharacterizeTracePool is CharacterizeTrace with the report's
// independent sections fanned out over a worker pool. Every section is
// the same pure function the serial path runs and each writes its own
// report field, so the result is byte-identical for any pool size
// (including nil, which runs the sections inline in index order).
func CharacterizeTracePool(tr *trace.Trace, program string, repConn [2]int, pool *dsp.Pool) *Report {
	rep := &Report{Program: program}

	sections := []func(){
		func() {
			rep.AggSize = SizeStats(tr)
			rep.AggInterarrival = InterarrivalStats(tr)
			rep.AggKBps = AverageBandwidthKBps(tr)
			rep.SizeModes = ModeCount(tr, 0.005)
		},
		func() {
			rep.AggSeries, rep.SeriesDT = BinnedBandwidth(tr, PaperWindow)
			rep.AggSpectrum = SpectrumOfSeries(rep.AggSeries, rep.SeriesDT)
		},
		func() {
			if repConn[0] < 0 {
				return
			}
			conn := tr.Connection(repConn[0], repConn[1])
			rep.ConnSize = SizeStats(conn)
			rep.ConnInterarrival = InterarrivalStats(conn)
			rep.ConnKBps = AverageBandwidthKBps(conn)
			rep.ConnSeries, _ = BinnedBandwidth(conn, PaperWindow)
			rep.ConnSpectrum = SpectrumOfSeries(rep.ConnSeries, PaperWindow.Seconds())
		},
		func() {
			// Correlation pairs: the data-bearing host-to-host
			// connections (broadcast pseudo-destination excluded).
			var pairs [][2]int
			for _, pr := range tr.Pairs() {
				if pr[1] != int(trace.Broadcast) {
					pairs = append(pairs, pr)
				}
			}
			rep.Correlation = ConnectionCorrelation(tr, pairs, CorrelationBin)
		},
		func() {
			// Phase coincidence over TCP-data connections only (daemon
			// keepalives would dilute it).
			data := tr.Filter(func(p trace.Packet) bool {
				return p.Proto == ethernet.ProtoTCP && p.Flags&ethernet.FlagData != 0
			})
			var dataPairs [][2]int
			for _, pr := range data.Pairs() {
				dataPairs = append(dataPairs, pr)
			}
			if len(dataPairs) > 1 {
				rep.Coincidence = PhaseCoincidence(data, dataPairs, CoincidenceGap)
			}
		},
	}
	pool.Map(len(sections), func(_ *dsp.Workspace, i int) { sections[i]() })
	return rep
}
