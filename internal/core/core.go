// Package core orchestrates the paper's experiments end to end: it
// assembles the simulated testbed (a shared 10 Mb/s Ethernet of
// workstations with a passive monitor in promiscuous mode), launches an
// Fx program over PVM, captures the packet trace, and computes the
// characterizations of the paper's figures.
package core

import (
	"fmt"
	"math"
	"strings"

	"fxnet/internal/airshed"
	"fxnet/internal/analysis"
	"fxnet/internal/dsp"
	"fxnet/internal/ethernet"
	"fxnet/internal/faults"
	"fxnet/internal/fx"
	"fxnet/internal/kernels"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/qos"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// Airshed is the registry name of the AIRSHED application (the kernels
// have their own registry in the kernels package).
const Airshed = "airshed"

// qosCapacityBps is the usable shared-segment capacity assumed by the
// degraded-team renegotiation, bytes/s: 10 Mb/s derated by framing and
// CSMA/CD overhead (the §7.3 experiments' calibration).
const qosCapacityBps = 1.1e6

// ProgramNames lists every runnable program.
func ProgramNames() []string {
	return append(kernels.Names(), Airshed)
}

// RunConfig configures one measured run.
type RunConfig struct {
	// Program is a kernel name ("sor", "2dfft", "t2dfft", "seq", "hist")
	// or "airshed".
	Program string
	// P is the processor count; 0 selects the paper's default (4).
	P int
	// Params override the kernel parameters; zero-valued fields keep the
	// paper defaults. Ignored for airshed.
	Params kernels.Params
	// AirshedParams override the AIRSHED dimensions; a zero value keeps
	// the paper configuration.
	AirshedParams airshed.Params
	// Seed drives all simulation randomness.
	Seed int64
	// BitRate of the shared segment; 0 selects 10 Mb/s.
	BitRate float64
	// Cost overrides the cost model; nil derives the calibrated model.
	Cost *fx.CostModel
	// DisableDesched removes OS-stall injection (for exact-period
	// ablations).
	DisableDesched bool
	// ForceCopyLoop (for the fragment-packing ablation) makes every
	// kernel use single-fragment copy-loop sends; ForceFragments makes
	// kernels use fragment sends. At most one may be set.
	ForceCopyLoop  bool
	ForceFragments bool
	// Net overrides transport parameters; zero keeps defaults.
	Net netstack.Config
	// KeepaliveInterval for PVM daemons; 0 keeps the default 2 s.
	KeepaliveInterval sim.Duration
	// FrameLossProb injects FCS corruption: each frame is independently
	// lost with this probability, and TCP recovers by retransmission.
	FrameLossProb float64
	// Switched replaces the shared collision domain with a store-and-
	// forward full-duplex switch (capture then models a SPAN port) — the
	// modernization ablation.
	Switched bool
	// Nagle enables sender-side coalescing. PVM sets TCP_NODELAY, so the
	// measured configuration leaves it off; turning it on shows how
	// coalescing would erase the fragment and per-element message
	// signatures.
	Nagle bool
	// CrossTrafficKBps injects a VBR-video-like background flow of the
	// given mean rate from an extra host toward alpha0, contending with
	// the program for the medium.
	CrossTrafficKBps float64
	// GuaranteeProgram (switched only) gives the program's connections
	// strict priority over best-effort cross traffic — the QoS guarantee
	// the paper's introduction motivates.
	GuaranteeProgram bool
	// FaultScript is a deterministic scheduled fault script (see
	// faults.Parse), e.g. "5s:linkdown host2,7s:linkup host2". Parsed
	// into a schedule when Faults is nil.
	FaultScript string
	// Faults is the parsed fault schedule; it takes precedence over
	// FaultScript.
	Faults *faults.Schedule
	// Degrade re-forms the team on the surviving hosts when a host is
	// detected dead, renegotiating the processor count through the §7.3
	// QoS model, instead of aborting the program.
	Degrade bool
	// HeartbeatMisses overrides the PVM failure-detection threshold K;
	// 0 keeps the default (3 when a fault schedule is active, disabled
	// otherwise, matching the measured-era daemons).
	HeartbeatMisses int
	// Topology, when non-nil, replaces the single shared segment with a
	// multi-segment bridged LAN: named segments with per-segment bit
	// rates, hosts pinned to segments, learning bridges relaying frames
	// over latency-only trunks. Runs are then eligible for conservative
	// parallel execution (see RunOpts.PDES); serial and parallel produce
	// byte-identical traces. Nil keeps the paper's shared segment and
	// leaves every existing run key and golden digest unchanged.
	Topology *Topology
}

// Result is a completed measured run.
type Result struct {
	Config   RunConfig
	Trace    *trace.Trace
	Elapsed  sim.Time
	SegStats ethernet.Stats
	Workers  []*fx.Worker
	// RepConn is the representative connection (src, dst host) for the
	// program, or (-1, -1).
	RepConn [2]int
	// Team is the final team generation (the launched team when no
	// degradation occurred).
	Team *fx.Team
	// RunErr is the first worker failure when the program aborted under
	// faults (nil for successful runs, including degraded ones). A run
	// that aborts cleanly is a valid measurement, not a Run error.
	RunErr *fx.RunError
	// Engine carries the conservative parallel engine's scheduling
	// counters for topology runs (zero-valued for single-segment runs
	// and results served from the cache).
	Engine sim.EngineStats
}

// PDESMode selects how a multi-segment run's partitions advance.
type PDESMode int

const (
	// PDESAuto runs partitions in parallel when the machine has more
	// than one CPU and the topology has more than one segment.
	PDESAuto PDESMode = iota
	// PDESSerial runs the partitioned engine on one goroutine — the
	// byte-identical baseline parallel mode is verified against.
	PDESSerial
	// PDESParallel forces one worker goroutine per segment partition.
	PDESParallel
)

// RunOpts carries execution options that do not affect result bytes —
// deliberately outside RunConfig so they never enter cache keys or
// canonical encodings.
type RunOpts struct {
	// PDES selects serial or parallel partition execution for topology
	// runs. Ignored (harmlessly) for single-segment runs.
	PDES PDESMode
}

// Run executes one experiment to completion and returns the captured
// trace and run metadata.
func Run(cfg RunConfig) (*Result, error) {
	res, _, err := run(cfg, false, RunOpts{})
	return res, err
}

// RunWithOpts is Run with explicit execution options.
func RunWithOpts(cfg RunConfig, opts RunOpts) (*Result, error) {
	res, _, err := run(cfg, false, opts)
	return res, err
}

// RunStreamWithOpts is RunStream with explicit execution options.
func RunStreamWithOpts(cfg RunConfig, opts RunOpts) (*Result, *Report, error) {
	return run(cfg, true, opts)
}

// RunStream executes one experiment with streaming analysis: the
// capture is not retained — packets fold into a StreamCharacterizer as
// they cross the wire — and the characterization arrives with the run.
// The Result's Trace carries only the session metadata (hosts,
// experiment parameters, marks) with no packets, so a million-packet
// run costs O(windows) analysis memory. See internal/analysis for the
// exactness contract relative to Characterize.
func RunStream(cfg RunConfig) (*Result, *Report, error) {
	return run(cfg, true, RunOpts{})
}

// run is the shared body of Run and RunStream.
func run(cfg RunConfig, stream bool, opts RunOpts) (*Result, *Report, error) {
	spec, isKernel := kernels.Lookup(cfg.Program)
	if !isKernel && cfg.Program != Airshed {
		return nil, nil, fmt.Errorf("core: unknown program %q (have %v)", cfg.Program, ProgramNames())
	}
	if cfg.ForceCopyLoop && cfg.ForceFragments {
		return nil, nil, fmt.Errorf("core: ForceCopyLoop and ForceFragments both set")
	}
	if cfg.Topology != nil {
		return runTopology(cfg, stream, opts, spec, isKernel)
	}
	schedule := cfg.Faults
	if schedule == nil && cfg.FaultScript != "" {
		s, err := faults.Parse(cfg.FaultScript)
		if err != nil {
			return nil, nil, err
		}
		schedule = s
	}
	faulty := !schedule.Empty()

	p := cfg.P
	if p == 0 {
		if isKernel {
			p = spec.P
		} else {
			p = 4
		}
	}

	k := sim.New(cfg.Seed)
	// Parked daemons and unfinished workers are unwound once the result
	// is sealed, so the run returns holding no goroutines of its own.
	defer k.Close()
	var (
		medium   ethernet.TrafficSource
		attach   func(name string) ethernet.Port
		segStats func() ethernet.Stats
	)
	if cfg.Switched {
		sw := ethernet.NewSwitch(k, cfg.BitRate, 10*sim.Microsecond)
		medium = sw
		attach = func(name string) ethernet.Port { return sw.Attach(name) }
		segStats = func() ethernet.Stats { return ethernet.Stats{Frames: sw.Delivered, Bytes: sw.DeliveredBytes} }
		if cfg.FrameLossProb > 0 {
			return nil, nil, fmt.Errorf("core: frame loss injection is only modeled on the shared segment")
		}
	} else {
		seg := ethernet.NewSegment(k, cfg.BitRate)
		if cfg.FrameLossProb > 0 {
			seg.SetDropProb(cfg.FrameLossProb)
		}
		medium = seg
		attach = func(name string) ethernet.Port { return seg.Attach(name) }
		segStats = seg.Stats
	}
	netCfg := cfg.Net
	if netCfg.SendWindow == 0 {
		netCfg = netstack.DefaultConfig()
	}
	if cfg.Nagle {
		netCfg.Nagle = true
	}
	if faulty {
		// Faults need bounded retries; the measured-era infinite-retry
		// transport would hang forever on a dead peer.
		if netCfg.MaxRetransmits == 0 {
			netCfg.MaxRetransmits = 8
		}
		if netCfg.ConnectTimeout == 0 {
			netCfg.ConnectTimeout = 30 * sim.Second
		}
	}
	hosts := make([]*netstack.Host, p)
	names := make([]string, 0, p+1)
	for i := range hosts {
		st := attach(fmt.Sprintf("alpha%d", i))
		hosts[i] = netstack.NewHost(k, st, st.Name(), netCfg)
		names = append(names, st.Name())
	}
	// The measurement workstation: attached, promiscuous, silent.
	attach("monitor")
	names = append(names, "monitor")
	col := trace.Capture(medium)

	if cfg.GuaranteeProgram {
		sw, ok := medium.(*ethernet.Switch)
		if !ok {
			return nil, nil, fmt.Errorf("core: GuaranteeProgram requires Switched")
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					sw.Guarantee(i, j)
				}
			}
		}
	}

	var crossHost *netstack.Host
	if cfg.CrossTrafficKBps > 0 {
		st := attach("video")
		names = append(names, "video")
		crossHost = netstack.NewHost(k, st, "video", netCfg)
	}

	pvmCfg := pvm.DefaultConfig()
	if cfg.KeepaliveInterval != 0 {
		pvmCfg.KeepaliveInterval = cfg.KeepaliveInterval
	} else if faulty {
		// Failure detection latency is misses × keepalive interval; the
		// sparse 30 s measured-era cadence would stretch every faulty
		// run by minutes of virtual time.
		pvmCfg.KeepaliveInterval = sim.Second
	}
	if cfg.HeartbeatMisses != 0 {
		pvmCfg.HeartbeatMisses = cfg.HeartbeatMisses
	} else if faulty {
		pvmCfg.HeartbeatMisses = 3
	}
	if faulty {
		if pvmCfg.ConnectRetries == 0 {
			pvmCfg.ConnectRetries = 3
		}
		if pvmCfg.ConnectBackoff == 0 {
			pvmCfg.ConnectBackoff = 250 * sim.Millisecond
		}
	}
	machine := pvm.NewMachine(k, hosts, pvmCfg)

	team, repConn, progName := launchTeam(cfg, machine, spec, isKernel, p)

	if faulty {
		hooks := faults.Hooks{
			HostIndex: func(name string) (int, bool) {
				for i := range hosts {
					if name == fmt.Sprintf("alpha%d", i) ||
						name == fmt.Sprintf("host%d", i) ||
						name == fmt.Sprint(i) {
						return i, true
					}
				}
				return 0, false
			},
			Crash:   machine.KillHost,
			Restart: machine.RestartHost,
			Stall: func(host int, d sim.Duration) {
				team.Final().StallHost(host, d)
			},
			Annotate: func(at sim.Time, f faults.Fault) {
				col.Trace().AddMark(at, f.String())
			},
		}
		// Wire faults only on the shared segment: a switched fabric has
		// no single collision domain, so link-level faults are rejected
		// by Apply's validation rather than silently ignored.
		if seg, ok := medium.(*ethernet.Segment); ok {
			hooks.LinkDown = seg.SetLinkDown
			hooks.SegmentDown = seg.SetSegmentDown
			hooks.Partition = seg.SetPartition
			hooks.Heal = seg.Heal
			hooks.BitRate = seg.SetBitRate
			hooks.Duplicate = seg.SetDuplicateProb
			hooks.Reorder = seg.SetReorderProb
		}
		if err := faults.Apply(k, schedule, hooks); err != nil {
			return nil, nil, err
		}
	}

	if crossHost != nil {
		startCrossTraffic(k, crossHost, hosts[0].Addr(), cfg.CrossTrafficKBps, team)
	}

	// Streaming analysis: fold packets into the characterization as they
	// are captured, and keep none of them. Attached here — after the
	// representative connection is known, before any packet flows.
	var sc *analysis.StreamCharacterizer
	if stream {
		sc = analysis.NewStreamCharacterizer(cfg.Program, repConn)
		col.SetRetain(false)
		col.AddSink(sc)
	}

	elapsed := k.Run()
	final, runErr, err := finishTeam(team, progName, cfg.Program, elapsed, k)
	if err != nil {
		return nil, nil, err
	}

	var rep *Report
	if stream {
		col.Flush()
		rep = sc.Report()
	}

	tr := col.Trace()
	tr.Hosts = names
	tr.Meta["program"] = cfg.Program
	tr.Meta["P"] = fmt.Sprint(p)
	tr.Meta["seed"] = fmt.Sprint(cfg.Seed)
	if faulty {
		tr.Meta["faults"] = schedule.String()
		tr.Meta["finalP"] = fmt.Sprint(len(final.Workers))
	}

	return &Result{
		Config:   cfg,
		Trace:    tr,
		Elapsed:  elapsed,
		SegStats: segStats(),
		Workers:  final.Workers,
		RepConn:  repConn,
		Team:     final,
		RunErr:   runErr,
	}, rep, nil
}

// launchTeam builds the cost model and launches the Fx program over the
// machine, returning the team, the representative connection, and the
// program's registry name. Shared by the single-segment and topology
// runners.
func launchTeam(cfg RunConfig, machine *pvm.Machine, spec kernels.Spec, isKernel bool, p int) (*fx.Team, [2]int, string) {
	cost := buildCost(cfg, spec, isKernel)
	repConn := [2]int{-1, -1}
	opts := fx.Opts{P: p, Cost: cost, Degrade: cfg.Degrade}
	var team *fx.Team
	if isKernel {
		params := spec.Params
		if cfg.Params.N != 0 {
			params.N = cfg.Params.N
		}
		if cfg.Params.Iters != 0 {
			params.Iters = cfg.Params.Iters
		}
		useFrags := spec.UseFragments
		if cfg.ForceCopyLoop {
			useFrags = false
		}
		if cfg.ForceFragments {
			useFrags = true
		}
		repConn = spec.RepresentativeConn
		run := spec.Run
		coalesce := cfg.ForceCopyLoop
		opts.Name = spec.Name
		if cfg.Degrade && spec.QoS != nil {
			// Degradation is the §7.3 negotiation run in reverse: hand
			// the network the program's [l(), b(), c] and let it pick
			// the post-fault processor count.
			prog := spec.QoS(params)
			net := qos.NewNetwork(qosCapacityBps)
			opts.Renegotiate = func(maxP int) int {
				off, err := net.Negotiate(prog, maxP)
				if err != nil {
					return maxP
				}
				return off.P
			}
		}
		team = fx.LaunchOpts(machine, opts, func(w *fx.Worker) {
			w.UseFragments = useFrags
			w.CoalesceFragments = coalesce
			run(w, params)
		})
	} else {
		ap := cfg.AirshedParams
		if ap.Layers == 0 {
			ap = airshed.PaperParams()
		}
		repConn = [2]int{1, 0}
		opts.Name = Airshed
		team = fx.LaunchOpts(machine, opts, func(w *fx.Worker) {
			airshed.Run(w, ap)
		})
	}
	return team, repConn, opts.Name
}

// finishTeam classifies the team's final state after the simulation
// drained: done, aborted (a fault measurement), killed without an abort
// record, or deadlocked (an error naming the processes left parked on
// the run's kernels).
func finishTeam(team *fx.Team, progName, program string, elapsed sim.Time, parts ...*sim.Kernel) (*fx.Team, *fx.RunError, error) {
	final := team.Final()
	switch {
	case final.Done():
		return final, nil, nil
	case final.Failed():
		return final, final.Err(), nil
	case final.Finished():
		// A worker was killed without any survivor recording an abort:
		// either the whole machine crashed, or (in a pipeline kernel)
		// the survivors had already finished their part and never
		// needed to talk to the dead rank again. Its output is lost
		// either way, so the run still reports a fault.
		return final, &fx.RunError{
			Program: progName, Rank: -1, Phase: "killed",
			Err: fmt.Errorf("worker killed by host fault before completing"),
		}, nil
	default:
		return nil, nil, fmt.Errorf("core: %s did not complete (deadlock at %v; parked: %s)", program, elapsed, parkedProcs(parts))
	}
}

// maxParkedNames bounds the deadlock report: enough for every party of a
// small team, short enough to read for a 4096-proc topology.
const maxParkedNames = 16

// parkedProcs names the processes suspended on the given kernels, in
// partition then spawn order. The always-parked PVM daemons (accept and
// reader loops) appear too: a reader stuck mid-message is a finding.
func parkedProcs(parts []*sim.Kernel) string {
	var names []string
	for _, k := range parts {
		names = append(names, k.Suspended()...)
	}
	if len(names) == 0 {
		return "none"
	}
	if more := len(names) - maxParkedNames; more > 0 {
		return fmt.Sprintf("%s, … %d more", strings.Join(names[:maxParkedNames], ", "), more)
	}
	return strings.Join(names, ", ")
}

// CalibratedCost returns the calibrated cost model for a program, as a
// starting point for ablations that perturb it.
func CalibratedCost(program string) (fx.CostModel, error) {
	spec, isKernel := kernels.Lookup(program)
	if !isKernel && program != Airshed {
		return fx.CostModel{}, fmt.Errorf("core: unknown program %q", program)
	}
	return buildCost(RunConfig{Program: program}, spec, isKernel), nil
}

// startCrossTraffic spawns a VBR-video-like background sender: 30 frames
// per second, lognormal frame sizes around the target mean rate, each
// frame packetized as UDP toward dst. It stops when the program finishes.
func startCrossTraffic(k *sim.Kernel, h *netstack.Host, dst int, kbps float64, team *fx.Team) {
	rng := k.Rand("core.crosstraffic")
	const fps = 30
	meanFrame := kbps * 1000 / fps
	k.Go("crosstraffic", func(p *sim.Proc) {
		for !team.Done() {
			size := int(meanFrame * math.Exp(0.4*rng.NormFloat64()-0.08))
			for size > 0 {
				chunk := min(size, 1400)
				h.SendUDP(dst, 4000, 4000, make([]byte, chunk))
				size -= chunk
			}
			p.Sleep(sim.DurationOf(1.0 / fps))
		}
	})
}

// buildCost derives the calibrated cost model for the program.
func buildCost(cfg RunConfig, spec kernels.Spec, isKernel bool) fx.CostModel {
	if cfg.Cost != nil {
		return *cfg.Cost
	}
	cost := fx.DefaultCostModel()
	rates := make(map[string]float64)
	if isKernel {
		for k, v := range spec.Rates {
			rates[k] = v
		}
	} else {
		for k, v := range airshed.Rates {
			rates[k] = v
		}
	}
	cost.Rates = rates
	if cfg.DisableDesched {
		cost.DeschedProb = 0
	}
	return cost
}

// Report is the per-program characterization of the paper's figures 3–7
// (and 8–11 for AIRSHED). It lives in internal/analysis so both the
// trace-derived and streaming characterizers can produce it; the alias
// keeps core the orchestration façade.
type Report = analysis.Report

// Characterize computes the full report for a run.
func Characterize(res *Result) *Report {
	return analysis.CharacterizeTrace(res.Trace, res.Config.Program, res.RepConn)
}

// CharacterizePool is Characterize with the report's independent
// sections fanned out over a worker pool. The result is byte-identical to Characterize for any
// pool size.
func CharacterizePool(res *Result, pool *dsp.Pool) *Report {
	return analysis.CharacterizeTracePool(res.Trace, res.Config.Program, res.RepConn, pool)
}

// RepConn returns the representative connection the paper plots for a
// program, or (-1, -1) when the program is unknown — the offline
// analyses' way to characterize a trace file the same way a live run
// would be.
func RepConn(program string) [2]int {
	if spec, ok := kernels.Lookup(program); ok {
		return spec.RepresentativeConn
	}
	if program == Airshed {
		return [2]int{1, 0}
	}
	return [2]int{-1, -1}
}
