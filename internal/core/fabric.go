package core

import (
	"cmp"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// partitionSeed derives a segment partition's kernel seed from the run
// seed and the segment name, so each partition draws independent random
// streams that do not depend on segment order.
func partitionSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte("topology/" + name))
	return seed ^ int64(h.Sum64())
}

// fabric is the network one run executes on, derived from the RunConfig
// fields that describe it. It is a list of partitions, one sim.Kernel
// and one medium each:
//
//	nil Topology        one partition seeded cfg.Seed: the paper's shared
//	                    Segment, or a Switch when Switched
//	one-segment         one partition seeded partitionSeed: that Segment
//	n-segment Topology  n partitions, each Segment behind a learning
//	                    Bridge, joined by latency-only trunks and driven
//	                    by the conservative sim.Engine
//
// One partition is the bare kernel loop with the capture tapping the
// medium directly. The engine, the bridges, and the per-segment capture
// buffers with their barrier merge exist only when there are several.
type fabric struct {
	parts []*sim.Kernel
	segs  []*ethernet.Segment // segs[i] runs on parts[i]; empty when sw is set
	sw    *ethernet.Switch

	// Set by bridge, for several partitions only.
	eng    *sim.Engine
	segOf  map[int]int          // host index → partition
	capBuf [][]ethernet.Capture // per-segment captures awaiting the merge
	merged []ethernet.Capture   // mergeCaptures' scratch
	taps   []func(ethernet.Capture)
}

// newFabric builds the media of cfg for a p-processor run. cfg has passed
// validate, so Switched implies a single partition.
func newFabric(cfg RunConfig, p int) *fabric {
	f := &fabric{}
	segments := []TopoSegment{{}}
	if cfg.Topology != nil {
		segments = cfg.Topology.Segments
	}
	for _, ts := range segments {
		seed, rate := cfg.Seed, cfg.BitRate
		if cfg.Topology != nil {
			seed = partitionSeed(cfg.Seed, ts.Name)
		}
		if ts.BitRate != 0 {
			rate = ts.BitRate
		}
		k := sim.New(seed)
		f.parts = append(f.parts, k)
		if cfg.Switched {
			f.sw = ethernet.NewSwitch(k, rate, 10*sim.Microsecond)
			continue
		}
		seg := ethernet.NewSegment(k, rate)
		if cfg.FrameLossProb > 0 {
			// Partition-local: drawn from this kernel's "ethernet.drop" stream.
			seg.SetDropProb(cfg.FrameLossProb)
		}
		f.segs = append(f.segs, seg)
	}
	if len(segments) > 1 {
		f.bridge(cfg.Topology, p)
	}
	return f
}

// bridge joins the segments into one LAN. Frames crossing segments
// travel bridge → trunk (an engine message carrying the summed trunk
// latencies) → peer bridge.
func (f *fabric) bridge(topo *Topology, p int) {
	n := len(f.segs)
	// Per-pair horizons: each partition pair advances independently up to
	// its own trunk-path bound, so one low-latency trunk does not
	// serialize the whole topology.
	f.eng = sim.NewEngineMatrix(f.parts, topo.LookaheadMatrix())
	f.segOf = topo.segmentOf()
	f.capBuf = make([][]ethernet.Capture, n)
	bridges := make([]*ethernet.Bridge, n)
	// relay[i][d] hands a frame from segment i to bridge d: bound once per
	// trunk direction, so a relayed frame travels as the engine message's
	// argument and allocates no closure of its own.
	relay := make([][]func(any), n)
	for i := range relay {
		relay[i] = make([]func(any), n)
		for d := range relay[i] {
			relay[i][d] = func(fr any) { bridges[d].DeliverFromTrunk(i, fr.(*ethernet.Frame)) }
		}
	}
	for i, seg := range f.segs {
		// Captures record only frames addressed into this segment
		// (broadcasts always pass), so a frame relayed across several
		// segments is counted once, at its destination — matching what a
		// monitor on that segment would keep after address filtering.
		seg.SetTapFilter(func(dst int) bool {
			s, ok := f.segOf[dst]
			return ok && s == i
		})
		seg.Tap(func(c ethernet.Capture) { f.capBuf[i] = append(f.capBuf[i], c) })
		bridges[i] = ethernet.NewBridge(seg, i, n, p, func(dstSeg int, fr *ethernet.Frame) {
			f.send(i, dstSeg, "trunk", relay[i][dstSeg], fr)
		})
	}
	f.eng.OnBarrier(f.mergeCaptures)
}

// send schedules fn(arg) on partition dst one trunk path after partition
// src's present. The path is the pair's lookahead (both trunk latencies),
// so now + path ≥ window start + lookahead: exactly the conservative
// contract the engine enforces.
func (f *fabric) send(src, dst int, name string, fn func(any), arg any) {
	at := f.parts[src].Now().Add(f.eng.Lookahead(src, dst))
	f.eng.SendArg(src, dst, at, name, fn, arg)
}

// attach creates the station with address id and returns its partition's
// kernel with the port. Hosts keep their global indexes as addresses, so
// traces read identically on every fabric. On one partition every station
// sits on the only segment; under the engine only pinned hosts attach,
// each to its segment (validate refuses the cross-traffic source there,
// run attaches no monitor to a topology).
func (f *fabric) attach(name string, id int) (*sim.Kernel, ethernet.Port) {
	if f.sw != nil {
		// Switch ports number themselves in attach order, which is id order.
		return f.parts[0], f.sw.Attach(name)
	}
	i := 0
	if f.eng != nil {
		i = f.segOf[id]
	}
	return f.parts[i], f.segs[i].AttachID(name, id)
}

// Tap makes the fabric the trace collector's ethernet.TrafficSource. One
// partition taps its medium directly; several deliver the barrier-merged,
// globally time-ordered sequence.
func (f *fabric) Tap(fn func(ethernet.Capture)) {
	switch {
	case f.sw != nil:
		f.sw.Tap(fn)
	case f.eng == nil:
		f.segs[0].Tap(fn)
	default:
		f.taps = append(f.taps, fn)
	}
}

// mergeCaptures is the engine's barrier hook: it drains the per-segment
// capture buffers below the watermark into the taps in (time, segment)
// order. Partitions advance to different horizons, so a buffer may hold
// captures newer than another partition's progress — but every event
// still to run anywhere is at or after the watermark, so what lies
// strictly below it is final; the remainder waits for a later barrier.
func (f *fabric) mergeCaptures(watermark sim.Time) {
	f.merged = f.merged[:0]
	for i, buf := range f.capBuf {
		// Each buffer is time-ordered; appended in segment order and
		// stable-sorted by time, ties keep the lower segment first.
		n := sort.Search(len(buf), func(j int) bool { return buf[j].Time >= watermark })
		f.merged = append(f.merged, buf[:n]...)
		f.capBuf[i] = buf[:copy(buf, buf[n:])]
	}
	slices.SortStableFunc(f.merged, func(a, b ethernet.Capture) int { return cmp.Compare(a.Time, b.Time) })
	for _, c := range f.merged {
		for _, fn := range f.taps {
			fn(c)
		}
	}
}

// run drives the simulation to completion and returns the virtual time
// of the last event.
func (f *fabric) run(opts RunOpts) sim.Time {
	if f.eng == nil {
		return f.parts[0].Run()
	}
	return f.eng.Run(opts.PDES.parallel())
}

// parallel reports whether the engine shares rounds between goroutines:
// forced, or automatic when the scheduler may run more than one at once.
// GOMAXPROCS, not NumCPU, is that bound — under GOMAXPROCS=1 the engine
// starts no helper anyway.
func (m PDESMode) parallel() bool {
	return m == PDESParallel || m == PDESAuto && runtime.GOMAXPROCS(0) > 1
}

// stats sums the media counters over the partitions.
func (f *fabric) stats() ethernet.Stats {
	if f.sw != nil {
		return ethernet.Stats{Frames: f.sw.Delivered, Bytes: f.sw.DeliveredBytes}
	}
	var sum ethernet.Stats
	for _, seg := range f.segs {
		sum.Add(seg.Stats())
	}
	return sum
}

// close unwinds every process still parked on the partitions' kernels.
func (f *fabric) close() {
	for _, k := range f.parts {
		k.Close()
	}
}
