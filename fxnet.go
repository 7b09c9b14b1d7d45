// Package fxnet reproduces "The Measured Network Traffic of
// Compiler-Parallelized Programs" (Dinda, Garcia, Leung; CMU-CS-98-144 /
// ICPP 2001) as a deterministic simulation study in pure Go.
//
// The package is a façade over the internal packages:
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
// A typical session: run a program on the simulated testbed, characterize
// its captured trace, and build a spectral model of its bandwidth demand:
//
//	res, err := fxnet.Run(fxnet.RunConfig{Program: "2dfft", Seed: 1})
//	rep := fxnet.Characterize(res)
//	m, fit := fxnet.FitModel(rep.AggSeries, rep.SeriesDT, 8, 0.1)
package fxnet

import (
	"bufio"
	"io"
	"os"
	"strings"

	"fxnet/internal/airshed"
	"fxnet/internal/analysis"
	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/ethernet"
	"fxnet/internal/farm"
	"fxnet/internal/faults"
	"fxnet/internal/fx"
	"fxnet/internal/fxc"
	"fxnet/internal/kernels"
	"fxnet/internal/media"
	"fxnet/internal/model"
	"fxnet/internal/pvm"
	"fxnet/internal/qos"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

// Re-exported experiment types.
type (
	// RunConfig configures one measured run (program, P, seed, overrides).
	RunConfig = core.RunConfig
	// Result is a completed run: trace, timings, worker handles.
	Result = core.Result
	// Report is the per-program characterization of the paper's figures.
	Report = core.Report
	// Trace is a captured packet trace.
	Trace = trace.Trace
	// Packet is one captured frame.
	Packet = trace.Packet
	// Spectrum is a one-sided power spectrum with Fourier coefficients.
	Spectrum = dsp.Spectrum
	// BandwidthModel is a truncated Fourier-series traffic model.
	BandwidthModel = model.BandwidthModel
	// FitMetrics quantify model fidelity.
	FitMetrics = model.FitMetrics
	// KernelParams are the kernel size parameters (N, Iters).
	KernelParams = kernels.Params
	// AirshedParams dimension the AIRSHED skeleton.
	AirshedParams = airshed.Params
	// Pattern is a global communication pattern.
	Pattern = fx.Pattern
	// CostModel maps kernel operation counts to virtual compute time.
	CostModel = fx.CostModel
	// Summary is a min/max/avg/sd statistic row.
	Summary = stats.Summary
	// QoSProgram is the [l(), b(), c] characterization of §7.3.
	QoSProgram = qos.Program
	// QoSNetwork grants burst-bandwidth commitments.
	QoSNetwork = qos.Network
	// QoSOffer is a negotiated (P, B, tbi) answer.
	QoSOffer = qos.Offer
	// Time is virtual simulation time (nanoseconds).
	Time = sim.Time
	// Duration is a span of virtual time (nanoseconds).
	Duration = sim.Duration
	// FaultSchedule is a deterministic timed fault script.
	FaultSchedule = faults.Schedule
	// Fault is one scheduled fault event.
	Fault = faults.Fault
	// FaultKind discriminates fault events.
	FaultKind = faults.Kind
	// RunError identifies the worker and SPMD phase a faulty run
	// aborted in.
	RunError = fx.RunError
	// TraceMark is a timestamped annotation (fault firing) in a trace.
	TraceMark = trace.Mark
	// Topology describes a multi-segment switched network: named
	// segments with pinned hosts, bridged by trunk links.
	Topology = core.Topology
	// TopoSegment is one named segment of a Topology.
	TopoSegment = core.TopoSegment
	// RunOpts selects execution strategy (serial vs parallel DES) —
	// never part of RunConfig or cache keys because it cannot change
	// result bytes.
	RunOpts = core.RunOpts
	// PDESMode selects how a multi-segment run is executed.
	PDESMode = core.PDESMode
)

// PDES execution modes for RunOpts.
const (
	// PDESAuto runs partitions in parallel when the topology has more
	// than one segment and GOMAXPROCS is above one.
	PDESAuto = core.PDESAuto
	// PDESSerial forces the partitioned engine to run single-threaded.
	PDESSerial = core.PDESSerial
	// PDESParallel forces one worker goroutine per segment partition.
	PDESParallel = core.PDESParallel
)

// DefaultTrunkLatency is the trunk-link latency a segment gets when its
// spec omits one (1 ms).
const DefaultTrunkLatency = core.DefaultTrunkLatency

// ParseTopology parses a topology spec like
// "lan0:0-15@100~2ms,lan1:16-31": comma-separated segments, each
// name:hosts with an optional @rateMbps and ~trunk latency.
func ParseTopology(spec string) (*Topology, error) { return core.ParseTopology(spec) }

// ParseTopologyJSON parses the JSON form of a topology.
func ParseTopologyJSON(data []byte) (*Topology, error) { return core.ParseTopologyJSON(data) }

// LoadTopology resolves a CLI topology argument: "@file" loads the file
// (JSON if it starts with '{' or '[', spec syntax otherwise), anything
// else parses as an inline spec. Empty returns nil (shared segment).
func LoadTopology(arg string) (*Topology, error) {
	if arg == "" {
		return nil, nil
	}
	if strings.HasPrefix(arg, "@") {
		data, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		s := strings.TrimSpace(string(data))
		if strings.HasPrefix(s, "{") || strings.HasPrefix(s, "[") {
			return core.ParseTopologyJSON([]byte(s))
		}
		return core.ParseTopology(s)
	}
	return core.ParseTopology(arg)
}

// RunWithOpts is Run with an explicit execution strategy.
func RunWithOpts(cfg RunConfig, opts RunOpts) (*Result, error) {
	return core.RunWithOpts(cfg, opts)
}

// RunStreamWithOpts is RunStream with an explicit execution strategy.
func RunStreamWithOpts(cfg RunConfig, opts RunOpts) (*Result, *Report, error) {
	return core.RunStreamWithOpts(cfg, opts)
}

// Fault kinds for hand-built schedules (scripts use faults.Parse names).
const (
	FaultLinkDown       = faults.LinkDown
	FaultLinkUp         = faults.LinkUp
	FaultSegmentDown    = faults.SegmentDown
	FaultSegmentUp      = faults.SegmentUp
	FaultNetPartition   = faults.NetPartition
	FaultHeal           = faults.Heal
	FaultHostCrash      = faults.HostCrash
	FaultHostRestart    = faults.HostRestart
	FaultBitRateDegrade = faults.BitRateDegrade
	FaultFrameDuplicate = faults.FrameDuplicate
	FaultFrameReorder   = faults.FrameReorder
	FaultComputeStall   = faults.ComputeStall
)

// Fault-path sentinel errors surfaced through RunError.Unwrap chains.
var (
	// ErrPeerDead reports a send/receive against a host the PVM failure
	// detector has declared dead.
	ErrPeerDead = pvm.ErrPeerDead
	// ErrTeamAborted poisons surviving workers once a teammate fails.
	ErrTeamAborted = fx.ErrTeamAborted
)

// ParseFaults parses a fault script like
// "5s:linkdown host2,7s:linkup host2" into a schedule.
func ParseFaults(script string) (*FaultSchedule, error) { return faults.Parse(script) }

// MustParseFaults is ParseFaults, panicking on malformed scripts.
func MustParseFaults(script string) *FaultSchedule { return faults.MustParse(script) }

// PreDuringPost splits a trace around a fault window and computes each
// segment's bandwidth spectrum (the §6.1 before/after methodology).
func PreDuringPost(t *Trace, start, end Time, bin Duration) (pre, during, post analysis.Window) {
	return analysis.PreDuringPost(t, start, end, bin)
}

// FaultWindow reports the span of a trace's fault marks.
func FaultWindow(t *Trace) (start, end Time, ok bool) { return analysis.FaultWindow(t) }

// The figure-1 communication patterns.
const (
	Neighbor  = fx.Neighbor
	AllToAll  = fx.AllToAll
	Partition = fx.Partition
	Broadcast = fx.Broadcast
	Tree      = fx.Tree
)

// Capture-record protocol and flag constants.
const (
	ProtoTCP = ethernet.ProtoTCP
	ProtoUDP = ethernet.ProtoUDP
	FlagAck  = ethernet.FlagAck
	FlagData = ethernet.FlagData
)

// Compiler (mini-Fx) types: HPF-style distributed arrays, affine array
// assignments, and the compile-time communication schedules they produce.
type (
	// HPFArray is a distributed 2-D array declaration.
	HPFArray = fxc.Array
	// HPFAssign is a parallel array assignment statement.
	HPFAssign = fxc.Assign
	// HPFReduce is a global reduction statement.
	HPFReduce = fxc.Reduce
	// HPFAffine is an affine subscript c0 + ci·i + cj·j.
	HPFAffine = fxc.Affine
	// CommSchedule is a compiled communication schedule.
	CommSchedule = fxc.Schedule
)

// Array distributions for HPFArray.
const (
	DistRows   = fxc.DistRows
	DistCols   = fxc.DistCols
	DistSerial = fxc.DistSerial
)

// CompileAssign generates the communication schedule of an array
// assignment on P processors (the Fx compiler's core step).
func CompileAssign(st HPFAssign, p int) *CommSchedule { return fxc.CompileAssign(st, p) }

// CompileReduce generates the tree schedule of a reduction.
func CompileReduce(st HPFReduce, p int) *CommSchedule { return fxc.CompileReduce(st, p) }

// PaperWindow is the paper's 10 ms bandwidth averaging interval.
const PaperWindow = analysis.PaperWindow

// Run executes one experiment on the simulated testbed.
func Run(cfg RunConfig) (*Result, error) { return core.Run(cfg) }

// RunStream executes one experiment in streaming-analysis mode: packets
// fold into the characterization as they are captured, the returned
// Result carries a metadata-only trace, and peak memory stays
// O(bandwidth windows) instead of O(packets). The report is
// bit-identical to Characterize(Run(cfg)): one fold computes both.
func RunStream(cfg RunConfig) (*Result, *Report, error) { return core.RunStream(cfg) }

// Streaming-analysis types.
type (
	// SpectralPool is a bounded worker pool with reusable DSP scratch
	// for Welch, whose result is byte-identical for every worker count.
	SpectralPool = dsp.Pool
	// WelchOptions configure the averaged-periodogram estimate.
	WelchOptions = dsp.WelchOptions
	// StreamCharacterizer folds packets into a Report in a single pass.
	StreamCharacterizer = analysis.StreamCharacterizer
	// BandwidthAccumulator folds packets into the windowed bandwidth
	// series in a single pass.
	BandwidthAccumulator = analysis.Accumulator
	// TraceReader decodes a binary trace one packet at a time.
	TraceReader = trace.Reader
)

// NewSpectralPool creates a pool bounded at workers goroutines
// (<= 0 selects GOMAXPROCS).
func NewSpectralPool(workers int) *SpectralPool { return dsp.NewPool(workers) }

// CharacterizeTraceData characterizes a bare trace, with the program and
// its representative connection derived from the trace's metadata.
func CharacterizeTraceData(t *Trace) *Report {
	prog := t.Meta["program"]
	return analysis.CharacterizeTrace(t, prog, core.RepConn(prog))
}

// NewStreamCharacterizer creates a single-pass characterizer for the
// named program (its representative connection is looked up like Run's).
func NewStreamCharacterizer(program string) *StreamCharacterizer {
	return analysis.NewStreamCharacterizer(program, core.RepConn(program))
}

// NewBandwidthAccumulator creates a single-pass bandwidth accumulator
// with the given averaging window.
func NewBandwidthAccumulator(bin Duration) *BandwidthAccumulator {
	return analysis.NewAccumulator(bin)
}

// NewTraceReader opens a streaming decoder over a binary trace.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// SpectrumOfSeries computes the paper-options periodogram of a bandwidth
// series (RemoveMean, PadPow2) — what SpectrumOf does after binning.
func SpectrumOfSeries(series []float64, dt float64) *Spectrum {
	return analysis.SpectrumOfSeries(series, dt)
}

// Welch estimates a power spectrum by averaging segment periodograms on
// a pool; the result is byte-identical for every worker count.
func Welch(x []float64, dt float64, opt WelchOptions, pool *SpectralPool) *Spectrum {
	return dsp.Welch(x, dt, opt, pool)
}

// Experiment-farm types: batch execution of independent runs on a
// bounded worker pool with content-addressed caching (see DESIGN.md §7).
type (
	// Farm executes batches of runs in parallel with singleflight dedup
	// and an optional on-disk result cache. Farm output is byte-identical
	// to serial runs for any worker count.
	Farm = farm.Farm
	// FarmJob is one labeled run configuration.
	FarmJob = farm.Job
	// FarmJobResult is a completed farm job (result, characterization,
	// cache provenance, wall time).
	FarmJobResult = farm.JobResult
	// FarmStats counts farm activity (executions, cache hits, dedups).
	FarmStats = farm.Stats
	// FarmEvent is a per-job progress report with an ETA.
	FarmEvent = farm.Event
	// RunCache is the on-disk content-addressed run cache.
	RunCache = farm.Cache
)

// FarmOptions configures NewFarm.
type FarmOptions struct {
	// Workers bounds concurrent simulations; <= 0 selects GOMAXPROCS.
	Workers int
	// CacheDir enables the on-disk result cache in that directory
	// (created if absent); empty disables disk caching.
	CacheDir string
	// Memoize keeps completed results in memory for the farm's lifetime,
	// so resubmitting a configuration never re-simulates in-process.
	Memoize bool
	// OnProgress, when non-nil, receives one event per completed job.
	OnProgress func(FarmEvent)
}

// NewFarm creates an experiment farm.
func NewFarm(o FarmOptions) (*Farm, error) {
	opts := farm.Options{Workers: o.Workers, Memoize: o.Memoize, OnProgress: o.OnProgress}
	if o.CacheDir != "" {
		c, err := farm.OpenCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
		opts.Cache = c
	}
	return farm.New(opts), nil
}

// RunKey returns the content-addressed cache key of a configuration: two
// configs share a key exactly when Run would produce byte-identical
// traces for them.
func RunKey(cfg RunConfig) string { return farm.Key(cfg) }

// Spectral-model catalog types: fitted §7.2 models stored durably by run
// key, so admission answers from a lookup instead of a simulation (see
// DESIGN.md §12).
type (
	// ModelCatalog is the content-addressed store of fitted models.
	ModelCatalog = catalog.Catalog
	// CatalogEntry is one fitted model with its identity and error bounds.
	CatalogEntry = catalog.Entry
	// CatalogEntryJSON is the entry's wire form (NaN-safe floats).
	CatalogEntryJSON = catalog.EntryJSON
	// ModelFitter simulates-and-fits on catalog misses.
	ModelFitter = catalog.Fitter
	// FitOptions configure one catalog fit (spike budget, min separation).
	FitOptions = catalog.Options
	// FitProvenance reports how a fit was answered (catalog, run cache,
	// dedup, or fresh simulation).
	FitProvenance = catalog.Provenance
	// FitResult is one ModelFitter.Sweep outcome.
	FitResult = catalog.Result
)

// DefaultModelSpikes is the spike budget a zero FitOptions selects.
const DefaultModelSpikes = catalog.DefaultSpikes

// OpenCatalog opens (creating if absent) a model catalog directory.
func OpenCatalog(dir string) (*ModelCatalog, error) { return catalog.Open(dir) }

// NewModelFitter creates a fitter over the given farm and catalog.
func NewModelFitter(f *Farm, c *ModelCatalog) *ModelFitter { return catalog.NewFitter(f, c) }

// CatalogEntryJSONOf converts an entry to its wire form.
func CatalogEntryJSONOf(e *CatalogEntry) CatalogEntryJSON { return catalog.ToJSON(e) }

// MarshalReport renders a characterization as JSON (the farm cache's
// report encoding; spectra carry re/im coefficient arrays).
func MarshalReport(rep *Report) ([]byte, error) { return farm.MarshalReport(rep) }

// Characterize computes the paper-figure characterization of a run.
func Characterize(res *Result) *Report { return core.Characterize(res) }

// Programs lists the runnable programs: the five kernels and "airshed".
func Programs() []string { return core.ProgramNames() }

// QuickConfig is the -quick sizing of one program (64/10 kernels, the
// reduced AIRSHED) at P processors; p = 0 keeps the paper's default.
func QuickConfig(program string, p int, seed int64) RunConfig {
	return core.QuickConfig(program, p, seed)
}

// PaperAirshedParams returns the paper's AIRSHED configuration.
func PaperAirshedParams() AirshedParams { return airshed.PaperParams() }

// SizeStats, InterarrivalStats, and AverageBandwidthKBps expose the basic
// trace characterizations for custom traces.
func SizeStats(t *Trace) Summary            { return analysis.SizeStats(t) }
func InterarrivalStats(t *Trace) Summary    { return analysis.InterarrivalStats(t) }
func AverageBandwidthKBps(t *Trace) float64 { return analysis.AverageBandwidthKBps(t) }

// BinnedBandwidth computes the evenly sampled instantaneous bandwidth
// series (KB/s) the spectra are built from.
func BinnedBandwidth(t *Trace, bin Duration) ([]float64, float64) {
	return analysis.BinnedBandwidth(t, bin)
}

// SpectrumOf computes the periodogram of a trace's binned bandwidth.
func SpectrumOf(t *Trace, bin Duration) *Spectrum { return analysis.Spectrum(t, bin) }

// FitModel builds a k-spike truncated Fourier model of a bandwidth series
// and reports its fit (§7.2).
func FitModel(series []float64, dt float64, k int, minSepHz float64) (*BandwidthModel, FitMetrics) {
	return model.Fit(series, dt, k, minSepHz)
}

// ReadTrace parses a trace in either the binary or the text format,
// auto-detected from the leading bytes.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(8)
	if err == nil && (string(head) == "FXTRACE1" || string(head) == "FXTRACE2") {
		return trace.ReadBinary(br)
	}
	return trace.ReadText(br)
}

// NewQoSNetwork creates a §7.3 network with the given capacity (bytes/s).
func NewQoSNetwork(capacityBps float64) *QoSNetwork { return qos.NewNetwork(capacityBps) }

// KernelQoS returns a kernel's §7.3 [l(), b(), c] characterization at
// its paper-scale problem size: the registry entry fxnetd negotiates
// with and Degrade renegotiates from — the one place the laws are
// written. False for a name that is not a kernel (AIRSHED has no
// analytic law).
func KernelQoS(name string) (QoSProgram, bool) {
	spec, ok := kernels.Lookup(name)
	if !ok {
		return QoSProgram{}, false
	}
	return spec.QoS(spec.Params), true
}

// CalibratedCost returns the calibrated cost model for a program, for
// ablations that perturb one parameter at a time.
func CalibratedCost(program string) (CostModel, error) { return core.CalibratedCost(program) }

// Media-traffic comparison sources (the traffic class the paper contrasts
// parallel programs against).
type (
	// VBRConfig shapes a GOP-structured variable-bit-rate video source.
	VBRConfig = media.VBRConfig
	// OnOffConfig shapes superposed heavy-tailed on/off sources.
	OnOffConfig = media.OnOffConfig
)

// GenerateVBR synthesizes a VBR video trace.
func GenerateVBR(cfg VBRConfig, duration Duration, seed int64, src, dst int) *Trace {
	return media.GenerateVBR(cfg, duration, seed, src, dst)
}

// GenerateOnOff synthesizes self-similar heavy-tailed on/off traffic.
func GenerateOnOff(cfg OnOffConfig, duration Duration, seed int64) *Trace {
	return media.GenerateOnOff(cfg, duration, seed)
}

// Hurst estimates the Hurst exponent of a bandwidth series by the
// aggregated-variance method (≈0.5 short-range, >0.7 self-similar, <0.5
// periodic).
func Hurst(series []float64) float64 { return stats.HurstAggVar(series, nil) }

// CoV is the coefficient of variation SD/|mean|.
func CoV(xs []float64) float64 { return stats.CoV(xs) }
