package ethernet

import (
	"testing"

	"fxnet/internal/sim"
)

func newTestSegment(t *testing.T, n int) (*sim.Kernel, *Segment, []*Station) {
	t.Helper()
	k := sim.New(1)
	seg := NewSegment(k, 0)
	sts := make([]*Station, n)
	for i := range sts {
		sts[i] = seg.Attach(string(rune('A' + i)))
	}
	return k, seg, sts
}

func dataFrame(dst, netLen int) *Frame {
	return &Frame{Dst: dst, Proto: ProtoTCP, NetLen: netLen, Flags: FlagData}
}

func TestFrameSizes(t *testing.T) {
	// 40-byte TCP/IP header with no data: the paper's 58-byte ACK.
	ack := &Frame{NetLen: 40}
	if got := ack.CapturedSize(); got != 58 {
		t.Errorf("ACK captured size = %d, want 58", got)
	}
	// Minimum wire frame is padded to 64 plus 8 preamble bytes.
	if got := ack.WireBytes(); got != 72 {
		t.Errorf("ACK wire bytes = %d, want 72", got)
	}
	// Full MSS segment: 20 IP + 20 TCP + 1460 data.
	full := &Frame{NetLen: 1500}
	if got := full.CapturedSize(); got != 1518 {
		t.Errorf("full captured size = %d, want 1518", got)
	}
	if got := full.WireBytes(); got != 1526 {
		t.Errorf("full wire bytes = %d, want 1526", got)
	}
}

func TestSendDeliversToDestinationOnly(t *testing.T) {
	k, _, sts := newTestSegment(t, 3)
	var got [3]int
	for i, st := range sts {
		i := i
		st.OnReceive(func(f *Frame) { got[i]++ })
	}
	sts[0].Send(dataFrame(1, 100))
	k.Run()
	if got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Errorf("deliveries = %v", got)
	}
}

func TestBroadcastDeliversToAllOthers(t *testing.T) {
	k, _, sts := newTestSegment(t, 4)
	var got [4]int
	for i, st := range sts {
		i := i
		st.OnReceive(func(f *Frame) { got[i]++ })
	}
	sts[2].Send(&Frame{Dst: Broadcast, NetLen: 50})
	k.Run()
	for i, n := range got {
		want := 1
		if i == 2 {
			want = 0
		}
		if n != want {
			t.Errorf("station %d got %d, want %d", i, n, want)
		}
	}
}

func TestSerializationTime(t *testing.T) {
	k, _, sts := newTestSegment(t, 2)
	var at sim.Time
	sts[1].OnReceive(func(f *Frame) { at = k.Now() })
	f := dataFrame(1, 1500)
	sts[0].Send(f)
	k.Run()
	// 1526 wire bytes at 10 Mb/s = 1220.8 µs.
	want := sim.DurationOf(float64(f.WireBytes()*8) / 10e6)
	if at != sim.Time(want) {
		t.Errorf("delivered at %v, want %v", at, sim.Time(want))
	}
}

func TestBackToBackFramesRespectIFG(t *testing.T) {
	k, _, sts := newTestSegment(t, 2)
	var times []sim.Time
	sts[1].OnReceive(func(f *Frame) { times = append(times, k.Now()) })
	for i := 0; i < 3; i++ {
		sts[0].Send(dataFrame(1, 1000))
	}
	k.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d frames", len(times))
	}
	per := sim.DurationOf(float64((&Frame{NetLen: 1000}).WireBytes()*8) / 10e6)
	for i := 1; i < 3; i++ {
		gap := times[i].Sub(times[i-1])
		if gap < per+InterFrameGap {
			t.Errorf("gap %d = %v, want ≥ %v", i, gap, per+InterFrameGap)
		}
		if gap > per+InterFrameGap+SlotTime {
			t.Errorf("gap %d = %v, too large", i, gap)
		}
	}
}

func TestContentionCollidesAndResolves(t *testing.T) {
	k, seg, sts := newTestSegment(t, 4)
	received := 0
	sts[3].OnReceive(func(f *Frame) { received++ })
	// Three stations become ready at the same instant → collision, then
	// backoff resolves and all frames eventually arrive.
	for i := 0; i < 3; i++ {
		st := sts[i]
		k.At(sim.Time(sim.Millisecond), "ready", func() { st.Send(dataFrame(3, 500)) })
	}
	k.Run()
	if received != 3 {
		t.Errorf("received %d frames, want 3", received)
	}
	if seg.Stats().Collisions == 0 {
		t.Error("no collisions among simultaneous senders")
	}
	if seg.Stats().Frames != 3 {
		t.Errorf("segment frames = %d", seg.Stats().Frames)
	}
}

func TestCollisionWindowLatecomer(t *testing.T) {
	k, seg, sts := newTestSegment(t, 3)
	got := 0
	sts[2].OnReceive(func(f *Frame) { got++ })
	k.At(0, "s0", func() { sts[0].Send(dataFrame(2, 1400)) })
	// Station 1 starts inside the collision window of station 0's frame.
	k.At(sim.Time(10*sim.Microsecond), "s1", func() { sts[1].Send(dataFrame(2, 1400)) })
	k.Run()
	if got != 2 {
		t.Errorf("received %d, want 2", got)
	}
	if seg.Stats().Collisions < 1 {
		t.Error("latecomer inside window did not collide")
	}
}

func TestLatecomerOutsideWindowDefers(t *testing.T) {
	k, seg, sts := newTestSegment(t, 3)
	var times []sim.Time
	sts[2].OnReceive(func(f *Frame) { times = append(times, k.Now()) })
	k.At(0, "s0", func() { sts[0].Send(dataFrame(2, 1400)) })
	// Well past the collision window but before the first frame ends.
	k.At(sim.Time(500*sim.Microsecond), "s1", func() { sts[1].Send(dataFrame(2, 1400)) })
	k.Run()
	if len(times) != 2 {
		t.Fatalf("received %d", len(times))
	}
	if seg.Stats().Collisions != 0 {
		t.Errorf("deferring sender collided %d times", seg.Stats().Collisions)
	}
}

func TestTapSeesAllTraffic(t *testing.T) {
	k, seg, sts := newTestSegment(t, 3)
	sts[1].OnReceive(func(f *Frame) {})
	sts[2].OnReceive(func(f *Frame) {})
	var caps []Capture
	seg.Tap(func(c Capture) { caps = append(caps, c) })
	sts[0].Send(&Frame{Dst: 1, Proto: ProtoTCP, SrcPort: 1234, DstPort: 80, NetLen: 140, Flags: FlagData})
	sts[0].Send(&Frame{Dst: 2, Proto: ProtoUDP, NetLen: 40})
	k.Run()
	if len(caps) != 2 {
		t.Fatalf("captured %d frames", len(caps))
	}
	c := caps[0]
	if c.Src != 0 || c.Dst != 1 || c.Proto != ProtoTCP || c.Size != 158 || c.SrcPort != 1234 {
		t.Errorf("capture = %+v", c)
	}
	if caps[1].Proto != ProtoUDP || caps[1].Size != 58 {
		t.Errorf("capture = %+v", caps[1])
	}
	if caps[1].Time <= caps[0].Time {
		t.Error("captures out of order")
	}
}

func TestThroughputNearLineRate(t *testing.T) {
	// One saturating sender runs at the line rate exactly: on 10 Mb/s
	// (800 ns a byte) a frame of netLen network bytes is L = max(64,
	// 14-byte header + netLen + 4-byte FCS) bytes plus the 8-byte
	// preamble on the wire, and 96 bit times (9.6 µs) of gap separate
	// frames, so n frames finish at n·(L+8)·800 ns + (n−1)·9.6 µs, without
	// a collision. The constants are the standard's, written out here, so
	// a frame-size or timing rule that drifts fails the closed form.
	const (
		n       = 500
		byteNs  = 800
		gapNs   = 9600
		minLen  = 64
		overLen = 14 + 4
		preLen  = 8
	)
	for _, netLen := range []int{46, 494, 1500} {
		k, seg, sts := newTestSegment(t, 2)
		var last sim.Time
		sts[1].OnReceive(func(f *Frame) { last = k.Now() })
		for i := 0; i < n; i++ {
			sts[0].Send(dataFrame(1, netLen))
		}
		k.Run()
		l := max(minLen, overLen+netLen)
		if want := sim.Time(n*(l+preLen)*byteNs + (n-1)*gapNs); last != want {
			t.Errorf("netLen %d: %d frames finished at %v, want %v", netLen, n, last, want)
		}
		if st := seg.Stats(); st.Frames != n || st.Collisions != 0 {
			t.Errorf("netLen %d: %d frames, %d collisions; want %d, 0", netLen, st.Frames, st.Collisions, n)
		}
	}
}

func TestManyContendersAllDeliver(t *testing.T) {
	// k stations × 50 frames all ready at t=0 must all eventually deliver
	// despite collisions (no drops in this model); a lone sender never
	// collides, and every added contender collides more.
	prev := int64(-1)
	for _, senders := range []int{1, 2, 4, 8} {
		k, seg, sts := newTestSegment(t, max(senders, 2))
		total := 0
		for _, st := range sts {
			st.OnReceive(func(f *Frame) { total++ })
		}
		for i := 0; i < senders; i++ {
			for j := 0; j < 50; j++ {
				sts[i].Send(dataFrame((i+1)%len(sts), 200))
			}
		}
		k.Run()
		if total != 50*senders {
			t.Errorf("%d senders: delivered %d, want %d", senders, total, 50*senders)
		}
		c := seg.Stats().Collisions
		t.Logf("%d senders: %d collisions", senders, c)
		if senders == 1 && c != 0 {
			t.Errorf("a lone sender collided %d times", c)
		}
		if senders > 1 && c <= prev {
			t.Errorf("%d senders: %d collisions, not more than %d with fewer", senders, c, prev)
		}
		prev = c
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() []sim.Time {
		k := sim.New(7)
		seg := NewSegment(k, 0)
		a := seg.Attach("a")
		b := seg.Attach("b")
		c := seg.Attach("c")
		c.OnReceive(func(f *Frame) {})
		var times []sim.Time
		seg.Tap(func(cp Capture) { times = append(times, cp.Time) })
		for i := 0; i < 20; i++ {
			a.Send(dataFrame(2, 700))
			b.Send(dataFrame(2, 300))
		}
		k.Run()
		return times
	}
	t1, t2 := run(), run()
	if len(t1) != 40 || len(t1) != len(t2) {
		t.Fatalf("lengths %d, %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestSendToSelfPanics(t *testing.T) {
	_, _, sts := newTestSegment(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic on self-send")
		}
	}()
	sts[0].Send(dataFrame(0, 100))
}

func TestOversizeFramePanics(t *testing.T) {
	_, _, sts := newTestSegment(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic on oversize frame")
		}
	}()
	sts[0].Send(dataFrame(1, MaxNetBytes+1))
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" || ProtoOther.String() != "other" {
		t.Error("Proto.String wrong")
	}
}
