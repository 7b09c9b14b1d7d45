// Package core orchestrates the paper's experiments end to end: it
// assembles the simulated testbed (a shared 10 Mb/s Ethernet of
// workstations with a passive monitor in promiscuous mode), launches an
// Fx program over PVM, captures the packet trace, and computes the
// characterizations of the paper's figures.
package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"fxnet/internal/airshed"
	"fxnet/internal/analysis"
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

// ProgramNames lists every runnable program.
func ProgramNames() []string {
	return append(kernels.Names(), Airshed)
}

// QuickConfig is the repository's -quick sizing of one program: 64/10
// kernels and the reduced AIRSHED, the regime the golden digests and
// the model catalog pin. p = 0 keeps the paper's default.
func QuickConfig(program string, p int, seed int64) RunConfig {
	cfg := RunConfig{Program: program, P: p, Seed: seed}
	if program == Airshed {
		cfg.AirshedParams = airshed.Params{Layers: 4, Species: 8, Grid: 128, Steps: 2, Hours: 5, Band: 4}
	} else {
		cfg.Params = kernels.Params{N: 64, Iters: 10}
	}
	return cfg
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
	// kernel use single-fragment copy-loop sends.
	ForceCopyLoop bool
	// KeepaliveInterval for PVM daemons; 0 keeps the default 2 s.
	KeepaliveInterval sim.Duration
	// FrameLossProb injects FCS corruption on every segment of the
	// fabric: each frame is independently lost with this probability, in
	// [0,1), and TCP recovers by retransmission. Not modeled on a switch.
	FrameLossProb float64
	// Switched replaces the shared collision domain with a store-and-
	// forward full-duplex switch (capture then models a SPAN port) — the
	// modernization ablation. A fabric of its own: it excludes Topology.
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
	// faults.Parse), e.g. "5s:linkdown host2,7s:linkup host2".
	FaultScript string
	// Degrade re-forms the team on the surviving hosts when a host is
	// detected dead, renegotiating the processor count through the §7.3
	// QoS model, instead of aborting the program.
	Degrade bool
	// Topology, when non-nil, replaces the single shared segment with a
	// bridged LAN: named segments with per-segment bit rates, hosts
	// pinned to segments, learning bridges relaying frames over latency-
	// only trunks. One segment is one partition and combines with every
	// feature the nil topology does, except Switched; several run under
	// the conservative engine (see RunOpts.PDES; serial and parallel
	// produce byte-identical traces) and refuse what Validate lists. Nil
	// keeps the paper's shared segment, run keys and golden digests.
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
	// Engine carries the conservative engine's scheduling counters. Only
	// a topology of several segments runs under the engine: zero for
	// every one-partition run and for results served from the cache.
	Engine sim.EngineStats
}

// PDESMode selects how a multi-segment run's partitions advance.
type PDESMode int

const (
	// PDESAuto runs partitions in parallel when GOMAXPROCS is above one
	// and the topology has more than one segment.
	PDESAuto PDESMode = iota
	// PDESSerial runs the partitioned engine on one goroutine — the
	// byte-identical baseline parallel mode is verified against.
	PDESSerial
	// PDESParallel forces the parallel executor: Run's goroutine and up
	// to GOMAXPROCS−1 helpers share each round's partitions.
	PDESParallel
)

// RunOpts carries execution options that do not affect result bytes —
// deliberately outside RunConfig so they never enter cache keys or
// canonical encodings.
type RunOpts struct {
	// PDES selects serial or parallel partition execution. Ignored
	// (harmlessly) when the fabric is a single partition.
	PDES PDESMode
}

// Run executes one experiment to completion and returns the captured
// trace and run metadata.
func Run(cfg RunConfig) (*Result, error) {
	return RunWithOpts(cfg, RunOpts{})
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
// run costs O(windows) analysis memory. The report is bit-identical to
// Characterize(Run(cfg)): one fold computes both.
func RunStream(cfg RunConfig) (*Result, *Report, error) {
	return run(cfg, true, RunOpts{})
}

// EffectiveP resolves the processor count the configuration runs with:
// cfg.P, or the program's default when 0 (4 for AIRSHED).
func (cfg RunConfig) EffectiveP() int {
	if cfg.P != 0 {
		return cfg.P
	}
	if spec, ok := kernels.Lookup(cfg.Program); ok {
		return spec.P
	}
	return 4
}

// Validate reports why cfg cannot run, or nil. It is the run path's own
// first step, exported so a front end can refuse a job at submit time
// with the message the run would fail with.
func Validate(cfg RunConfig) error {
	_, err := validate(cfg)
	return err
}

// finiteRate reports whether a rate field holds a usable value: finite
// and non-negative, 0 selecting the default. Written so NaN fails too.
func finiteRate(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// belowFloor reports whether a bit rate is set but too slow to time a
// frame (faults.MinBitRate).
func belowFloor(bps float64) bool { return bps != 0 && bps < faults.MinBitRate }

// validate is the one place this package refuses a configuration:
// malformed input first, then the refusal table (DESIGN.md §13), keyed
// on what the builder can observe — the medium kind and the partition
// count. It returns the fault schedule it resolved on the way.
func validate(cfg RunConfig) (*faults.Schedule, error) {
	if _, isKernel := kernels.Lookup(cfg.Program); !isKernel && cfg.Program != Airshed {
		return nil, fmt.Errorf("core: unknown program %q (have %v)", cfg.Program, ProgramNames())
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"P", cfg.P}, {"N", cfg.Params.N}, {"Iters", cfg.Params.Iters}} {
		if f.v < 0 {
			return nil, fmt.Errorf("core: %s %d is negative (0 selects the paper's default)", f.name, f.v)
		}
	}
	if cfg.Program == Airshed {
		if err := cfg.AirshedParams.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if !(cfg.FrameLossProb >= 0 && cfg.FrameLossProb < 1) { // written so NaN fails too
		return nil, fmt.Errorf("core: FrameLossProb %g outside [0,1)", cfg.FrameLossProb)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"BitRate", cfg.BitRate}, {"CrossTrafficKBps", cfg.CrossTrafficKBps}} {
		if !finiteRate(f.v) {
			return nil, fmt.Errorf("core: %s %g is not a finite non-negative rate", f.name, f.v)
		}
	}
	if belowFloor(cfg.BitRate) {
		return nil, fmt.Errorf("core: BitRate %g is below the %g b/s floor", cfg.BitRate, faults.MinBitRate)
	}
	schedule, err := faults.Parse(cfg.FaultScript)
	if err != nil {
		return nil, err
	}
	if err := checkFaults(schedule, cfg.EffectiveP(), cfg.Switched); err != nil {
		return nil, err
	}
	multi := false
	if cfg.Topology != nil {
		if err := cfg.Topology.ValidateFor(cfg.EffectiveP()); err != nil {
			return nil, err
		}
		multi = len(cfg.Topology.Segments) > 1
	}
	for _, r := range []struct {
		hit       bool
		what, why string
	}{
		{cfg.Switched && cfg.Topology != nil, "Switched with Topology",
			"the switch is a fabric of its own, not a segment a bridge can join"},
		{cfg.Switched && cfg.FrameLossProb > 0, "FrameLossProb with Switched",
			"FCS corruption is modeled on the shared-medium segment only"},
		{cfg.GuaranteeProgram && !cfg.Switched, "GuaranteeProgram without Switched",
			"strict priority is a property of the switch's egress queues"},
		// The rest mutate machine state every partition reads, at an
		// instant only one partition's clock defines — outside any
		// barrier, so serial and parallel execution could disagree.
		{multi && !schedule.Empty(), "fault injection (FaultScript) on a multi-segment topology",
			"a fault fires on one partition's clock but kills hosts and marks them dead on all of them"},
		{multi && cfg.Degrade, "Degrade on a multi-segment topology",
			"re-forming the team rewrites machine state shared by every partition"},
		{multi && cfg.CrossTrafficKBps > 0, "CrossTrafficKBps on a multi-segment topology",
			"the background source stops on the team's atomic done flag, which is not a function of virtual time"},
	} {
		if r.hit {
			return nil, fmt.Errorf("core: %s is not supported: %s", r.what, r.why)
		}
	}
	return schedule, nil
}

// hostIndex resolves a fault script's host name — alphaN, hostN or a
// bare N — to a machine host index among p hosts.
func hostIndex(name string, p int) (int, bool) {
	for i := range p {
		n := strconv.Itoa(i)
		if name == n || name == "alpha"+n || name == "host"+n {
			return i, true
		}
	}
	return 0, false
}

// checkFaults refuses, with faults.Apply's own messages, a schedule the
// run could only fail on once its fabric is built: a fault on the wire
// of a switched fabric (it has no single collision domain to take one),
// or a host name that is none of the p hosts.
func checkFaults(s *faults.Schedule, p int, switched bool) error {
	if s.Empty() {
		return nil
	}
	for _, f := range s.Faults {
		names, wire := []string{f.Host}, false
		switch f.Kind {
		case faults.HostCrash, faults.HostRestart, faults.ComputeStall:
		case faults.LinkDown, faults.LinkUp:
			wire = true
		case faults.NetPartition:
			names, wire = slices.Concat(f.Groups...), true
		default:
			names, wire = nil, true
		}
		if wire && switched {
			return fmt.Errorf("faults: %s not supported by this topology", f.Kind)
		}
		for _, name := range names {
			if _, ok := hostIndex(name, p); !ok {
				return fmt.Errorf("faults: unknown host %q", name)
			}
		}
	}
	return nil
}

// run is the one body behind every Run* entry point: validate, build the
// fabric, attach the hosts, launch the program, run, seal the trace.
func run(cfg RunConfig, stream bool, opts RunOpts) (*Result, *Report, error) {
	schedule, err := validate(cfg)
	if err != nil {
		return nil, nil, err
	}
	faulty := !schedule.Empty()
	p := cfg.EffectiveP()

	fab := newFabric(cfg, p)
	// Parked daemons and unfinished workers are unwound once the result
	// is sealed, so the run returns holding no goroutines of its own.
	defer fab.close()

	netCfg := netstack.DefaultConfig()
	netCfg.Nagle = cfg.Nagle
	if faulty {
		// Faults need bounded retries; the measured-era infinite-retry
		// transport would hang forever on a dead peer.
		netCfg.MaxRetransmits = 8
		netCfg.ConnectTimeout = 30 * sim.Second
	}
	names := make([]string, 0, p+2)
	attachHost := func(name string) *netstack.Host {
		k, port := fab.attach(name, len(names))
		names = append(names, name)
		return netstack.NewHost(k, port, name, netCfg)
	}
	hosts := make([]*netstack.Host, p)
	for i := range hosts {
		hosts[i] = attachHost(fmt.Sprintf("alpha%d", i))
	}
	// The measurement workstation: attached, promiscuous, silent. A
	// topology's capture is its segments' taps, so there the monitor is a
	// trace host name only, with no station behind it.
	if cfg.Topology == nil {
		fab.attach("monitor", len(names))
	}
	names = append(names, "monitor")
	col := trace.Capture(fab)

	if cfg.GuaranteeProgram {
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					fab.sw.Guarantee(i, j)
				}
			}
		}
	}

	pvmCfg := pvm.DefaultConfig()
	if faulty {
		pvmCfg = pvm.FaultConfig()
	}
	if cfg.KeepaliveInterval != 0 {
		pvmCfg.KeepaliveInterval = cfg.KeepaliveInterval
	}
	// The fault schedule and the cross-traffic source take "the" kernel:
	// both are refused on several partitions, so the first is the only one.
	k := fab.parts[0]
	machine := pvm.NewMachine(k, hosts, pvmCfg)
	if fab.eng != nil {
		// A task exit is physical news: it reaches every other partition
		// one trunk path later, as an engine message, so the count each
		// partition observes is a pure function of virtual time (see
		// pvm.DistributeExits). One partition keeps the exact count.
		machine.DistributeExits(len(fab.parts),
			func(hostIndex int) int { return fab.segOf[hostIndex] },
			func(src, dst int, fn func()) { fab.send(src, dst, "pvm.exit", func(any) { fn() }, nil) })
	}

	team := launchTeam(cfg, machine, p)
	repConn := RepConn(cfg.Program)

	if faulty {
		hooks := faults.Hooks{
			HostIndex: func(name string) (int, bool) { return hostIndex(name, p) },
			Crash:     machine.KillHost,
			Restart:   machine.RestartHost,
			Stall: func(host int, d sim.Duration) {
				team.Final().StallHost(host, d)
			},
			Annotate: func(at sim.Time, f faults.Fault) {
				col.Trace().AddMark(at, f.String())
			},
		}
		// Wire faults only on a segment: a switched fabric has no single
		// collision domain, so link-level faults are rejected by Apply's
		// validation rather than silently ignored.
		if fab.sw == nil {
			seg := fab.segs[0]
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

	if cfg.CrossTrafficKBps > 0 {
		startCrossTraffic(k, attachHost("video"), hosts[0].Addr(), cfg.CrossTrafficKBps, team)
	}

	// Streaming analysis: fold packets into the characterization as they
	// are captured, and keep none of them.
	var sc *analysis.StreamCharacterizer
	if stream {
		sc = analysis.NewStreamCharacterizer(cfg.Program, repConn)
		col.SetRetain(false)
		col.AddSink(sc)
	}

	elapsed := fab.run(opts)
	final, runErr, err := finishTeam(team, cfg.Program, elapsed, fab.parts...)
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
	if cfg.Topology != nil {
		tr.Meta["topology"] = cfg.Topology.Spec()
	}
	if faulty {
		tr.Meta["faults"] = schedule.String()
		tr.Meta["finalP"] = fmt.Sprint(len(final.Workers))
	}

	res := &Result{
		Config:   cfg,
		Trace:    tr,
		Elapsed:  elapsed,
		SegStats: fab.stats(),
		Workers:  final.Workers,
		RepConn:  repConn,
		Team:     final,
		RunErr:   runErr,
	}
	if fab.eng != nil {
		res.Engine = fab.eng.Stats()
	}
	return res, rep, nil
}

// launchTeam builds the cost model and launches the Fx program over the
// machine.
func launchTeam(cfg RunConfig, machine *pvm.Machine, p int) *fx.Team {
	spec, isKernel := kernels.Lookup(cfg.Program)
	opts := fx.Opts{P: p, Cost: buildCost(cfg, spec, isKernel), Degrade: cfg.Degrade, Name: cfg.Program}
	if !isKernel {
		ap := cfg.AirshedParams
		if ap.Layers == 0 {
			ap = airshed.PaperParams()
		}
		return fx.LaunchOpts(machine, opts, func(w *fx.Worker) {
			airshed.Run(w, ap)
		})
	}
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
	if cfg.Degrade && spec.QoS != nil {
		// Degradation is the §7.3 negotiation run in reverse: hand the
		// network the program's [l(), b(), c] and let it pick the
		// post-fault processor count.
		prog := spec.QoS(params)
		net := qos.NewNetwork(qos.EffectiveCapacityBps)
		opts.Renegotiate = func(maxP int) int {
			off, err := net.Negotiate(prog, maxP)
			if err != nil {
				return maxP
			}
			return off.P
		}
	}
	return fx.LaunchOpts(machine, opts, func(w *fx.Worker) {
		w.UseFragments = useFrags
		w.CoalesceFragments = cfg.ForceCopyLoop
		spec.Run(w, params)
	})
}

// finishTeam classifies the team's final state after the simulation
// drained: done, aborted (a fault measurement), killed without an abort
// record, or deadlocked (an error naming the processes left parked on
// the run's kernels).
func finishTeam(team *fx.Team, program string, elapsed sim.Time, parts ...*sim.Kernel) (*fx.Team, *fx.RunError, error) {
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
			Program: program, Rank: -1, Phase: "killed",
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
// partition then spawn order. The always-parked PVM accept daemons appear
// too. A connection reader is not a process (it parses in event context),
// so a message stuck half-received shows as its task parked in Recv.
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
// (and 8–11 for AIRSHED). It lives in internal/analysis beside the fold
// that computes it; the alias keeps core the orchestration façade.
type Report = analysis.Report

// Characterize computes the full report for a run that retained its
// trace, by folding the trace's chunks into the fold a stream run feeds live
// — so it equals the report RunStream returns for the same configuration
// bit for bit.
func Characterize(res *Result) *Report {
	return analysis.CharacterizeTrace(res.Trace, res.Config.Program, res.RepConn)
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
