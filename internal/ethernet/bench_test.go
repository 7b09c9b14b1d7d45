package ethernet

import (
	"testing"

	"fxnet/internal/sim"
)

// newFrames pre-builds n frames of netLen network bytes, so a measured
// loop sends and delivers but never constructs.
func newFrames(n, netLen int) []*Frame {
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = &Frame{NetLen: netLen}
	}
	return frames
}

// sharedSegment attaches stations to one CSMA/CD segment and returns a
// function that queues frames round-robin over the first senders of
// them, each addressed to its sender's neighbour. k.Run delivers them.
func sharedSegment(stations, senders int) (k *sim.Kernel, queue func(frames []*Frame)) {
	k = sim.New(1)
	seg := NewSegment(k, 0)
	sts := make([]*Station, stations)
	for i := range sts {
		sts[i] = seg.Attach(string(rune('a' + i)))
		sts[i].OnReceive(func(f *Frame) {})
	}
	return k, func(frames []*Frame) {
		for i, f := range frames {
			st := sts[i%senders]
			f.Dst = (st.ID() + 1) % stations
			st.Send(f)
		}
	}
}

// switchPair attaches two ports to a store-and-forward switch and
// returns a function that queues frames from the first to the second.
func switchPair() (k *sim.Kernel, queue func(frames []*Frame)) {
	k = sim.New(1)
	sw := NewSwitch(k, 0, 10*sim.Microsecond)
	a := sw.Attach("a")
	sw.Attach("b").OnReceive(func(f *Frame) {})
	return k, func(frames []*Frame) {
		for _, f := range frames {
			f.Dst = 1
			a.Send(f)
		}
	}
}

// bridgeDecision returns the bridge's per-frame forwarding decision —
// source learning, destination lookup, trunk hand-off — for one frame
// bound for a learned host on another segment.
func bridgeDecision() func() {
	seg := NewSegment(sim.New(1), 0)
	br := NewBridge(seg, 0, 16, 1024, func(dstSeg int, f *Frame) {})
	tx := seg.Attach("h0")
	tx.OnReceive(func(f *Frame) {})
	br.learn(512, 3)
	f := &Frame{Src: 0, Dst: 512, NetLen: 1500}
	return func() { br.sawFrame(tx, f) }
}

// The per-frame paths every delivered frame takes — CSMA/CD delivery,
// switch store-and-forward, the bridge's forwarding decision — allocate
// nothing in steady state: thousand-host topologies hit them millions
// of times.
func TestForwardingDoesNotAllocate(t *testing.T) {
	const batch = 64
	deliver := func(k *sim.Kernel, queue func([]*Frame), netLen int) func() {
		frames := newFrames(batch, netLen)
		return func() {
			queue(frames)
			k.Run()
		}
	}
	saturated, queueSaturated := sharedSegment(2, 1)
	contended, queueContended := sharedSegment(4, 4)
	switched, queueSwitched := switchPair()
	for _, tc := range []struct {
		name string
		step func()
	}{
		{"shared segment, one sender", deliver(saturated, queueSaturated, 1500)},
		{"shared segment, four contenders", deliver(contended, queueContended, 700)},
		{"switch store-and-forward", deliver(switched, queueSwitched, 1500)},
		{"bridge forwarding decision", bridgeDecision()},
	} {
		tc.step() // grow the queues and the event free list to their steady size
		if allocs := testing.AllocsPerRun(20, tc.step); allocs != 0 {
			t.Errorf("%s: %.1f allocs per step, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkSharedSaturation measures the event cost of pushing b.N full
// frames through the CSMA/CD segment with a single sender.
func BenchmarkSharedSaturation(b *testing.B) {
	k, queue := sharedSegment(2, 1)
	queue(newFrames(b.N, 1500))
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSharedContention measures four stations contending.
func BenchmarkSharedContention(b *testing.B) {
	k, queue := sharedSegment(4, 4)
	queue(newFrames(b.N, 700))
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkBridgeForwarding measures the bridge's per-frame forwarding
// decision, the path every delivered frame takes in a multi-segment
// fabric.
func BenchmarkBridgeForwarding(b *testing.B) {
	decide := bridgeDecision()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide()
	}
}

// BenchmarkSwitchForwarding measures the store-and-forward path.
func BenchmarkSwitchForwarding(b *testing.B) {
	k, queue := switchPair()
	queue(newFrames(b.N, 1500))
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
