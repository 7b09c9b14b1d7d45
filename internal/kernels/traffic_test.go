package kernels_test

import (
	"fmt"
	"testing"

	"fxnet/internal/core"
	"fxnet/internal/ethernet"
	"fxnet/internal/fx"
	"fxnet/internal/fxc"
	"fxnet/internal/kernels"
	"fxnet/internal/netstack"
	"fxnet/internal/qos"
)

// trafficParams is the size every kernel runs at below: N divisible by 8,
// so every block at P = 2, 4 and 8 is whole and the laws' divisions are
// exact.
var trafficParams = kernels.Params{N: 32, Iters: 2}

// tcpFraming is what a captured TCP data frame carries beyond its
// payload: Ethernet header and trailer, IP and TCP headers (58 B).
const tcpFraming = ethernet.HeaderBytes + netstack.IPHeaderBytes + netstack.TCPHeaderBytes + ethernet.TrailerBytes

// pvmFraming is what PVM writes around one message of the given fragment
// count (internal/pvm Task.SendErr, Task.SendFragsErr): the 20-byte
// header (magic, source TID, tag, body length, fragment count), then a
// 4-byte length before each fragment. A copy-loop send is one fragment.
func pvmFraming(frags int) int { return 20 + 4*frags }

type pair = [2]int

// compiled is each kernel's communication written as mini-Fx statements
// and compiled for P processors; nil for T2DFFT, whose sender and
// receiver halves fxc cannot declare (it distributes every array over
// all P ranks).
func compiled(name string, n, P int) *fxc.Schedule {
	switch name {
	case "sor":
		// u(i,j) = u(i-1,j) and u(i,j) = u(i+1,j): float32, block(rows).
		u := &fxc.Array{Name: "u", Rows: n, Cols: n, Dist: fxc.DistRows, ElemBytes: 4}
		down := fxc.CompileAssign(fxc.Assign{LHS: u, RHS: u, RowSub: fxc.I.Shifted(-1), ColSub: fxc.J}, P)
		up := fxc.CompileAssign(fxc.Assign{LHS: u, RHS: u, RowSub: fxc.I.Shifted(1), ColSub: fxc.J}, P)
		return &fxc.Schedule{P: P, ElemBytes: 4, Transfers: append(down.Transfers, up.Transfers...)}
	case "2dfft":
		// c(i,j) = a(i,j): complex64, block(rows) → block(cols).
		a := &fxc.Array{Name: "a", Rows: n, Cols: n, Dist: fxc.DistRows, ElemBytes: 8}
		c := &fxc.Array{Name: "c", Rows: n, Cols: n, Dist: fxc.DistCols, ElemBytes: 8}
		return fxc.CompileAssign(fxc.Assign{LHS: c, RHS: a, RowSub: fxc.I, ColSub: fxc.J}, P)
	case "seq":
		// b(i,j) = in(i,j): 16-byte (row, column, value) records from a
		// serial array to block(rows).
		in := &fxc.Array{Name: "in", Rows: n, Cols: n, Dist: fxc.DistSerial, ElemBytes: 16}
		b := &fxc.Array{Name: "b", Rows: n, Cols: n, Dist: fxc.DistRows, ElemBytes: 16}
		return fxc.CompileAssign(fxc.Assign{LHS: b, RHS: in, RowSub: fxc.I, ColSub: fxc.J}, P)
	case "hist":
		// reduce: 256 int64 bins up the binomial tree.
		h := &fxc.Array{Name: "h", Rows: n, Cols: n, Dist: fxc.DistRows, ElemBytes: 4}
		return fxc.CompileReduce(fxc.Reduce{Src: h, ResultBytes: kernels.HistBins * 8}, P)
	}
	return nil
}

// scheduleBytes is the compiled payload of each ordered pair.
func scheduleBytes(s *fxc.Schedule) map[pair]int {
	m := map[pair]int{}
	for _, t := range s.Transfers {
		m[pair{t.Src, t.Dst}] += t.Bytes(s.ElemBytes)
	}
	return m
}

// patternPairs is the ordered pair set of figure 1's pattern c on P
// processors.
func patternPairs(c fx.Pattern, P int) map[pair]bool {
	m := map[pair]bool{}
	for s := 0; s < P; s++ {
		for d := 0; d < P; d++ {
			var in bool
			switch c {
			case fx.Neighbor:
				in = s-d == 1 || d-s == 1
			case fx.AllToAll:
				in = s != d
			case fx.Partition:
				in = s < P/2 && d >= P/2
			case fx.Broadcast:
				in = s == 0 && d != 0
			case fx.Tree:
				in = s != 0 && d == s-s&-s // odd multiples of 2^i send down 2^i
			}
			if in {
				m[pair{s, d}] = true
			}
		}
	}
	return m
}

// wirePayload runs the kernel fault-free without daemon traffic and sums
// the TCP data payload each ordered host pair carried.
func wirePayload(t *testing.T, name string, P int) map[pair]int {
	t.Helper()
	res, err := core.Run(core.RunConfig{
		Program: name, P: P, Params: trafficParams, Seed: 1,
		KeepaliveInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := map[pair]int{}
	for _, p := range res.Trace.Packets {
		if p.Proto == ethernet.ProtoTCP && p.Flags&ethernet.FlagData != 0 {
			m[pair{int(p.Src), int(p.Dst)}] += int(p.Size) - tcpFraming
		}
	}
	return m
}

// TestKernelTrafficMatchesCompiler holds each kernel's one hand-written
// law, the registry's [l(), b(), c], three ways at P = 2, 4 and 8:
//
//  1. law = compiler: b(P) is the compiled statement's message size and
//     c its class (at P = 2, where the classes' pair sets collapse, its
//     pair set);
//  2. compiler = wire: every ordered pair carries Iters × its compiled
//     bytes plus PVM framing, and no other pair carries data;
//  3. law = wire, for the traffic the compiler cannot express: T2DFFT's
//     halves, SEQ's every-element-to-every-peer broadcast, HIST's release
//     broadcast.
//
// AIRSHED is out of scope: fxc handles only 2-D arrays, and the catalog's
// all-to-all for it is not a registry law.
func TestKernelTrafficMatchesCompiler(t *testing.T) {
	n, iters := trafficParams.N, trafficParams.Iters
	for _, name := range kernels.Names() {
		for _, P := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/P%d", name, P), func(t *testing.T) {
				spec, _ := kernels.Lookup(name)
				law := spec.QoS(trafficParams)
				burst := int(law.Burst(P))
				// want is each data-bearing pair's payload over the run.
				want := map[pair]int{}
				sched := compiled(name, n, P)
				if sched != nil {
					lawMatchesCompiler(t, name, law, sched, P)
				}
				switch name {
				case "hist":
					// The release broadcast 0→r needs a replicated array,
					// which fxc does not have: the law's one bin array per hop.
					for pr := range patternPairs(fx.Broadcast, P) {
						want[pr] = iters * (burst + pvmFraming(1))
					}
					fallthrough
				case "sor", "2dfft":
					for pr, b := range scheduleBytes(sched) {
						want[pr] = iters * (b + pvmFraming(1))
					}
				case "seq":
					// Owner-computes sends each element to its owner; SEQ
					// sends every element to every peer, one message each.
					// The compiled pairs are the wire's, at 1/P of its
					// bytes; the law's b(P) = 16·N bytes per peer per row
					// phase, N row phases per iteration.
					for pr, b := range scheduleBytes(sched) {
						if P*b != n*burst {
							t.Errorf("seq %v: compiled %d B is not 1/P of N·b(P) = %d", pr, b, n*burst)
						}
						want[pr] = iters * n * (burst + n*pvmFraming(1))
					}
				case "t2dfft":
					// One fragment-list message per sender→receiver pair.
					for pr := range patternPairs(law.Pattern, P) {
						want[pr] = iters * (burst + pvmFraming(tfftFrags(n, P)))
					}
				}
				wire := wirePayload(t, name, P)
				for pr, w := range want {
					if wire[pr] != w {
						t.Errorf("pair %v carried %d payload bytes, want %d", pr, wire[pr], w)
					}
				}
				for pr, w := range wire {
					if _, ok := want[pr]; !ok {
						t.Errorf("pair %v carried %d payload bytes, want none", pr, w)
					}
				}
			})
		}
	}
}

// lawMatchesCompiler is leg 1: b(P) is the compiled message size (SEQ's
// law counts one row phase, not the whole matrix, so only its pattern is
// compared) and c is the compiled class, or at P = 2 its pair set.
func lawMatchesCompiler(t *testing.T, name string, law qos.Program, sched *fxc.Schedule, P int) {
	t.Helper()
	if name != "seq" && law.Burst(P) != float64(sched.MaxMessageBytes()) {
		t.Errorf("law b(%d) = %g B, compiled message %d B", P, law.Burst(P), sched.MaxMessageBytes())
	}
	if P == 2 {
		got := map[pair]bool{}
		for pr := range scheduleBytes(sched) {
			got[pr] = true
		}
		if want := patternPairs(law.Pattern, P); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("law c = %v has pairs %v, compiled pairs %v", law.Pattern, want, got)
		}
		return
	}
	if pat, _ := sched.Classify(); pat != law.Pattern {
		t.Errorf("law c = %v, compiler classifies %v", law.Pattern, pat)
	}
}

// tfftFrags is the fragment count of one T2DFFT sender→receiver message:
// the kernel packs a few sender rows per fragment, about 4 KB each.
func tfftFrags(n, P int) int {
	rows, cols := n/(P/2), n/(P/2)
	perFrag := max(4096/(8*cols), 1)
	return (rows + perFrag - 1) / perFrag
}
