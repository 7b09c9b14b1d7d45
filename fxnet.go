// Package fxnet reproduces "The Measured Network Traffic of
// Compiler-Parallelized Programs" (Dinda, Garcia, Leung; CMU-CS-98-144 /
// ICPP 2001) as a deterministic simulation study in pure Go.
//
// The package is the surface the examples in example_test.go and the
// README use, over the internal packages:
//
//   - internal/sim        — discrete-event simulation kernel
//   - internal/ethernet   — shared 10 Mb/s CSMA/CD collision domain
//   - internal/netstack   — TCP (MSS segmentation, delayed ACKs) and UDP
//   - internal/pvm        — PVM 3.3-style daemons, tasks, fragment packing
//   - internal/fx         — Fx SPMD runtime: patterns, distributions, cost model
//   - internal/kernels    — SOR, 2DFFT, T2DFFT, SEQ, HIST with real numerics
//   - internal/airshed    — the AIRSHED air-quality skeleton
//   - internal/trace      — promiscuous capture, connections, codecs
//   - internal/analysis   — size/interarrival stats, windowed bandwidth
//   - internal/dsp        — FFT, periodograms, spectral peaks
//   - internal/model      — truncated-Fourier traffic models (§7.2)
//   - internal/qos        — [l(), b(), c] negotiation (§7.3)
//
// A typical session — run a program on the simulated testbed,
// characterize its captured trace, and build a spectral model of its
// bandwidth demand — is ExampleFitModel.
package fxnet

import (
	"fxnet/internal/airshed"
	"fxnet/internal/analysis"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/fx"
	"fxnet/internal/kernels"
	"fxnet/internal/media"
	"fxnet/internal/model"
	"fxnet/internal/qos"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

type (
	// RunConfig configures one measured run (program, P, seed, overrides).
	RunConfig = core.RunConfig
	// KernelParams are the kernel size parameters (N, Iters).
	KernelParams = kernels.Params
	// Trace is a captured packet trace.
	Trace = trace.Trace
	// Pattern is a global communication pattern.
	Pattern = fx.Pattern
	// QoSProgram is the [l(), b(), c] characterization of §7.3.
	QoSProgram = qos.Program
	// Duration is a span of virtual time (nanoseconds).
	Duration = sim.Duration
	// VBRConfig shapes a GOP-structured variable-bit-rate video source.
	VBRConfig = media.VBRConfig
	// OnOffConfig shapes superposed heavy-tailed on/off sources.
	OnOffConfig = media.OnOffConfig
)

// The figure-1 communication patterns.
const (
	Neighbor  = fx.Neighbor
	AllToAll  = fx.AllToAll
	Partition = fx.Partition
	Broadcast = fx.Broadcast
	Tree      = fx.Tree
)

// PaperWindow is the paper's 10 ms bandwidth averaging interval.
const PaperWindow = analysis.PaperWindow

// Run executes one experiment on the simulated testbed.
func Run(cfg RunConfig) (*core.Result, error) { return core.Run(cfg) }

// Characterize computes the paper-figure characterization of a run.
func Characterize(res *core.Result) *core.Report { return core.Characterize(res) }

// PaperAirshedParams returns the paper's AIRSHED configuration.
func PaperAirshedParams() airshed.Params { return airshed.PaperParams() }

// SizeStats, InterarrivalStats, and AverageBandwidthKBps expose the basic
// trace characterizations for custom traces.
func SizeStats(t *Trace) stats.Summary         { return analysis.SizeStats(t) }
func InterarrivalStats(t *Trace) stats.Summary { return analysis.InterarrivalStats(t) }
func AverageBandwidthKBps(t *Trace) float64    { return analysis.AverageBandwidthKBps(t) }

// BinnedBandwidth computes the evenly sampled instantaneous bandwidth
// series (KB/s) the spectra are built from.
func BinnedBandwidth(t *Trace, bin Duration) ([]float64, float64) {
	return analysis.BinnedBandwidth(t, bin)
}

// SpectrumOf computes the periodogram of a trace's binned bandwidth.
func SpectrumOf(t *Trace, bin Duration) *dsp.Spectrum { return analysis.Spectrum(t, bin) }

// FitModel builds a k-spike truncated Fourier model of a bandwidth series
// and reports its fit (§7.2).
func FitModel(series []float64, dt float64, k int, minSepHz float64) (*model.BandwidthModel, model.FitMetrics) {
	return model.Fit(series, dt, k, minSepHz)
}

// NewQoSNetwork creates a §7.3 network with the given capacity (bytes/s).
func NewQoSNetwork(capacityBps float64) *qos.Network { return qos.NewNetwork(capacityBps) }

// GenerateVBR synthesizes a VBR video trace.
func GenerateVBR(cfg VBRConfig, duration Duration, seed int64, src, dst int) *Trace {
	return media.GenerateVBR(cfg, duration, seed, src, dst)
}

// GenerateOnOff synthesizes self-similar heavy-tailed on/off traffic.
func GenerateOnOff(cfg OnOffConfig, duration Duration, seed int64) *Trace {
	return media.GenerateOnOff(cfg, duration, seed)
}

// Hurst estimates the Hurst exponent of a bandwidth series by the
// aggregated-variance method (≈0.5 short-range, >0.7 self-similar; a
// periodic series reads < 0.5 only over many periods, 0.61–0.67 for the
// 2DFFT over a few). It overstates H at light tails: Pareto on/off
// traffic with α = 1.8, H = 0.60, reads 0.66–0.73.
func Hurst(series []float64) float64 { return stats.HurstAggVar(series, nil) }

// CoV is the coefficient of variation SD/|mean|.
func CoV(xs []float64) float64 { return stats.CoV(xs) }
