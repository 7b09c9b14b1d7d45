package core

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"fxnet/internal/analysis"
	"fxnet/internal/ethernet"
	"fxnet/internal/kernels"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// partitionSeed derives a segment partition's kernel seed from the run
// seed and the segment name, so each partition draws independent random
// streams that do not depend on segment order.
func partitionSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte("topology/" + name))
	return seed ^ int64(h.Sum64())
}

// mergedTaps adapts the barrier-merged multi-segment capture stream to
// the TrafficSource interface trace.Capture expects: registered taps
// receive the globally time-ordered capture sequence.
type mergedTaps struct {
	fns []func(ethernet.Capture)
}

func (m *mergedTaps) Tap(fn func(ethernet.Capture)) { m.fns = append(m.fns, fn) }

// runTopology is the multi-segment counterpart of run: it partitions the
// simulation by segment — one kernel per segment, hosts attached to
// their pinned segment's kernel — and drives the partitions through the
// conservative engine. Frames crossing segments travel bridge → trunk
// (engine Send with the summed trunk latencies) → peer bridge. Captures
// are buffered per segment and merged into one collector at each
// barrier in (time, segment) order, which is a total order because
// every partition has already executed past the merged window.
//
// Serial and parallel execution run the identical window/barrier
// schedule, so they produce byte-identical traces; the choice lives in
// RunOpts, never in RunConfig, because it must not enter cache keys.
func runTopology(cfg RunConfig, stream bool, opts RunOpts, spec kernels.Spec, isKernel bool) (*Result, *Report, error) {
	topo := cfg.Topology

	// Features tied to the single shared segment (or to cross-partition
	// mutation outside barriers) are rejected up front rather than
	// silently ignored.
	switch {
	case cfg.Switched:
		return nil, nil, fmt.Errorf("core: Topology and Switched are mutually exclusive")
	case cfg.FrameLossProb > 0:
		return nil, nil, fmt.Errorf("core: frame loss injection is not modeled on multi-segment topologies")
	case cfg.FaultScript != "" || !cfg.Faults.Empty():
		return nil, nil, fmt.Errorf("core: fault injection is not supported on multi-segment topologies")
	case cfg.Degrade:
		return nil, nil, fmt.Errorf("core: Degrade is not supported on multi-segment topologies")
	case cfg.CrossTrafficKBps > 0:
		return nil, nil, fmt.Errorf("core: cross traffic is not supported on multi-segment topologies")
	case cfg.GuaranteeProgram:
		return nil, nil, fmt.Errorf("core: GuaranteeProgram requires Switched")
	case cfg.HeartbeatMisses != 0:
		return nil, nil, fmt.Errorf("core: heartbeat failure detection is not supported on multi-segment topologies")
	}

	p := cfg.P
	if p == 0 {
		if isKernel {
			p = spec.P
		} else {
			p = 4
		}
	}
	if err := topo.ValidateFor(p); err != nil {
		return nil, nil, err
	}

	nSeg := len(topo.Segments)
	parts := make([]*sim.Kernel, nSeg)
	delay := make([]sim.Duration, nSeg)
	for i := range parts {
		parts[i] = sim.New(partitionSeed(cfg.Seed, topo.Segments[i].Name))
		delay[i] = topo.trunkLatency(i)
	}
	defer func() {
		for _, k := range parts {
			k.Close()
		}
	}()
	var eng *sim.Engine
	if nSeg > 1 {
		// Per-pair horizons: each partition pair advances independently
		// up to its own trunk-path bound, so one low-latency trunk no
		// longer serializes the whole topology.
		eng = sim.NewEngineMatrix(parts, topo.LookaheadMatrix())
	} else {
		eng = sim.NewEngine(parts, 0)
	}

	segOf := topo.segmentOf()
	segs := make([]*ethernet.Segment, nSeg)
	for i := range segs {
		rate := topo.Segments[i].BitRate
		if rate == 0 {
			rate = cfg.BitRate
		}
		segs[i] = ethernet.NewSegment(parts[i], rate)
		i := i
		// Captures record only frames addressed into this segment
		// (broadcasts always pass), so a frame relayed across several
		// segments is counted once, at its destination — matching what
		// a monitor on that segment would keep after address filtering.
		segs[i].SetTapFilter(func(dst int) bool {
			s, ok := segOf[dst]
			return ok && s == i
		})
	}

	// Bridges and trunks. A frame leaving segment i for segment j is
	// timestamped now + delay[i] + delay[j] ≥ window start + lookahead,
	// which is exactly the conservative contract the engine enforces.
	bridges := make([]*ethernet.Bridge, nSeg)
	for i := range bridges {
		i := i
		bridges[i] = ethernet.NewBridge(segs[i], i, nSeg, p, func(dstSeg int, f *ethernet.Frame) {
			src := i
			at := parts[src].Now().Add(delay[src] + delay[dstSeg])
			eng.Send(src, dstSeg, at, "trunk", func() {
				bridges[dstSeg].DeliverFromTrunk(src, f)
			})
		})
	}

	netCfg := cfg.Net
	if netCfg.SendWindow == 0 {
		netCfg = netstack.DefaultConfig()
	}
	if cfg.Nagle {
		netCfg.Nagle = true
	}

	// Hosts keep their global indexes as station addresses, so traces
	// read identically to single-segment runs.
	hosts := make([]*netstack.Host, p)
	names := make([]string, 0, p+1)
	for h := 0; h < p; h++ {
		si := segOf[h]
		name := fmt.Sprintf("alpha%d", h)
		st := segs[si].AttachID(name, h)
		hosts[h] = netstack.NewHost(parts[si], st, name, netCfg)
		names = append(names, name)
	}
	names = append(names, "monitor")

	// Per-segment capture buffers, merged at each barrier up to the
	// engine's watermark. Partitions now advance to different horizons,
	// so a buffer may hold captures newer than another partition's
	// progress — but every event still to run anywhere is at or after
	// the watermark, so draining strictly below it yields the global
	// (time, segment) order; the remainder waits for a later barrier.
	capBuf := make([][]ethernet.Capture, nSeg)
	mt := &mergedTaps{}
	for i := range segs {
		i := i
		segs[i].Tap(func(c ethernet.Capture) {
			capBuf[i] = append(capBuf[i], c)
		})
	}
	col := trace.Capture(mt)
	cur := make([]int, nSeg)
	eng.OnBarrier(func(watermark sim.Time) {
		for i := range cur {
			cur[i] = 0
		}
		for {
			best := -1
			for i := range capBuf {
				// Per-segment buffers are time-ordered, so once a head
				// reaches the watermark the rest of that buffer has too.
				if cur[i] == len(capBuf[i]) || capBuf[i][cur[i]].Time >= watermark {
					continue
				}
				if best < 0 || capBuf[i][cur[i]].Time < capBuf[best][cur[best]].Time {
					best = i
				}
			}
			if best < 0 {
				break
			}
			c := capBuf[best][cur[best]]
			cur[best]++
			for _, fn := range mt.fns {
				fn(c)
			}
		}
		for i := range capBuf {
			if n := cur[i]; n > 0 {
				rest := copy(capBuf[i], capBuf[i][n:])
				capBuf[i] = capBuf[i][:rest]
			}
		}
	})

	pvmCfg := pvm.DefaultConfig()
	if cfg.KeepaliveInterval != 0 {
		pvmCfg.KeepaliveInterval = cfg.KeepaliveInterval
	}
	machine := pvm.NewMachine(parts[0], hosts, pvmCfg)
	if nSeg > 1 {
		// A task exit is physical news: its own partition sees it
		// immediately, and it reaches every other partition one trunk
		// path later through the engine's message path. The signal each
		// partition observes is then a pure function of virtual time —
		// identical in serial and parallel mode, and independent of how
		// the per-pair engine cuts its rounds (see
		// pvm.DistributeExits). A single partition keeps the exact
		// immediate count: there is no cross-partition observer.
		machine.DistributeExits(nSeg,
			func(hostIndex int) int { return segOf[hostIndex] },
			func(srcPart, dstPart int, fn func()) {
				at := parts[srcPart].Now().Add(delay[srcPart] + delay[dstPart])
				eng.Send(srcPart, dstPart, at, "pvm.exit", fn)
			})
	}

	team, repConn, progName := launchTeam(cfg, machine, spec, isKernel, p)

	var sc *analysis.StreamCharacterizer
	if stream {
		sc = analysis.NewStreamCharacterizer(cfg.Program, repConn)
		col.SetRetain(false)
		col.AddSink(sc)
	}

	parallel := false
	switch opts.PDES {
	case PDESParallel:
		parallel = true
	case PDESAuto:
		parallel = nSeg > 1 && runtime.NumCPU() > 1
	}

	elapsed := eng.Run(parallel)
	final, runErr, err := finishTeam(team, progName, cfg.Program, elapsed, parts...)
	if err != nil {
		return nil, nil, err
	}

	var rep *Report
	if stream {
		col.Flush()
		rep = sc.Report()
	}

	var segStats ethernet.Stats
	for i := range segs {
		st := segs[i].Stats()
		segStats.Frames += st.Frames
		segStats.Bytes += st.Bytes
		segStats.Collisions += st.Collisions
		segStats.MaxBackoffHit += st.MaxBackoffHit
	}

	tr := col.Trace()
	tr.Hosts = names
	tr.Meta["program"] = cfg.Program
	tr.Meta["P"] = fmt.Sprint(p)
	tr.Meta["seed"] = fmt.Sprint(cfg.Seed)
	tr.Meta["topology"] = topo.Spec()

	return &Result{
		Config:   cfg,
		Trace:    tr,
		Elapsed:  elapsed,
		SegStats: segStats,
		Workers:  final.Workers,
		RepConn:  repConn,
		Team:     final,
		RunErr:   runErr,
		Engine:   eng.Stats(),
	}, rep, nil
}
