package ethernet_test

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/netstack"
	"fxnet/internal/sim"
)

// One *Frame is legitimately delivered more than once: twice by a
// duplicating segment, late by a reordering one, once per segment by a
// bridge flood (from another partition's goroutine), again and again by
// whoever re-delivers it through a trunk. The host stack therefore carves
// frames from slabs it never recycles. These cases fail — wrong bytes, or
// a report from the race detector — if the slab is ever turned into a
// free list.

// streamByte is byte o of the TCP stream every case sends, so a data
// segment's payload can be checked against its own sequence number.
func streamByte(o int64) byte { return byte(o*31 + o>>8) }

func stream(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = streamByte(int64(i))
	}
	return b
}

// beacon is the payload of the n-th broadcast datagram; its source port
// repeats n in the header.
func beacon(n int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b, uint32(n))
	binary.LittleEndian.PutUint32(b[4:], ^uint32(n))
	return b
}

// checkFrame reports whether f still says what its sender wrote.
func checkFrame(t *testing.T, f *ethernet.Frame) {
	switch f.Proto {
	case ethernet.ProtoTCP:
		if f.NetLen != netstack.IPHeaderBytes+netstack.TCPHeaderBytes+len(f.Payload) {
			t.Errorf("tcp frame: NetLen %d with %d payload bytes", f.NetLen, len(f.Payload))
		}
		for j, b := range f.Payload {
			if want := streamByte(f.TCP.Seq + int64(j)); b != want {
				t.Errorf("tcp frame seq %d: payload[%d] = %#x, want %#x", f.TCP.Seq, j, b, want)
				return
			}
		}
	case ethernet.ProtoUDP:
		n := binary.LittleEndian.Uint32(f.Payload)
		if len(f.Payload) != 8 || binary.LittleEndian.Uint32(f.Payload[4:]) != ^n || f.SrcPort != uint16(n) {
			t.Errorf("udp frame from port %d carries beacon %d (% x)", f.SrcPort, n, f.Payload)
		}
	}
}

// checked is a station whose receiver sees every frame only after
// checkFrame has; heard counts the deliveries.
type checked struct {
	*ethernet.Station
	t     *testing.T
	heard atomic.Int64
}

func (c *checked) OnReceive(fn func(*ethernet.Frame)) {
	c.Station.OnReceive(func(f *ethernet.Frame) {
		c.heard.Add(1)
		checkFrame(c.t, f)
		fn(f)
	})
}

// transfer runs a client on a sending size bytes of the stream to a
// server on b in small and large writes, and returns what the server read.
func transfer(a, b *netstack.Host, size int) *[]byte {
	got := new([]byte)
	l := b.Listen(80)
	b.Kernel().Go("server", func(p *sim.Proc) {
		*got = append(*got, l.Accept(p).Read(p, size)...)
	})
	a.Kernel().Go("client", func(p *sim.Proc) {
		c := a.Connect(p, b.Addr(), 80)
		data := stream(size)
		for off := 0; off < size; {
			n := 16
			if off%3 == 0 {
				n = 3000
			}
			n = min(n, size-off)
			c.Write(p, data[off:off+n])
			off += n
		}
	})
	return got
}

func TestDeliveredFramesAreNeverReused(t *testing.T) {
	const size = 40_000
	oneSegment := func(t *testing.T, fault func(*ethernet.Segment)) (*ethernet.Segment, *checked) {
		k := sim.New(3)
		t.Cleanup(k.Close)
		seg := ethernet.NewSegment(k, 0)
		fault(seg)
		a := netstack.NewHost(k, seg.Attach("a"), "a", netstack.DefaultConfig())
		port := &checked{Station: seg.Attach("b"), t: t}
		b := netstack.NewHost(k, port, "b", netstack.DefaultConfig())
		got := transfer(a, b, size)
		k.Run()
		if !bytes.Equal(*got, stream(size)) {
			t.Errorf("server read %d bytes that are not the stream", len(*got))
		}
		return seg, port
	}

	t.Run("duplicate", func(t *testing.T) {
		seg, port := oneSegment(t, func(s *ethernet.Segment) { s.SetDuplicateProb(1) })
		if seg.Stats().Duplicated == 0 || port.heard.Load() == 0 {
			t.Errorf("no duplicate deliveries: %+v, heard %d", seg.Stats(), port.heard.Load())
		}
	})

	t.Run("reorder", func(t *testing.T) {
		seg, _ := oneSegment(t, func(s *ethernet.Segment) { s.SetReorderProb(0.3) })
		if seg.Stats().Reordered == 0 {
			t.Error("no frame was held for reordering")
		}
	})

	// Host a on segment 0 streams to host b on segment 1 while
	// broadcasting beacons; each partition runs on its own goroutine, and
	// every beacon (and the SYN, before the bridges learn b) is one frame
	// heard on both.
	t.Run("bridge-flood", func(t *testing.T) {
		const beacons = 300
		ks := []*sim.Kernel{sim.New(1), sim.New(2)}
		eng := sim.NewEngineMatrix(ks, [][]sim.Duration{{0, sim.Millisecond}, {sim.Millisecond, 0}})
		var segs [2]*ethernet.Segment
		var bridges [2]*ethernet.Bridge
		for i, k := range ks {
			t.Cleanup(k.Close)
			segs[i] = ethernet.NewSegment(k, 0)
			bridges[i] = ethernet.NewBridge(segs[i], i, 2, 4, func(dst int, f *ethernet.Frame) {
				eng.Send(i, dst, ks[i].Now().Add(sim.Millisecond), "trunk", func() {
					bridges[dst].DeliverFromTrunk(i, f)
				})
			})
		}
		a := netstack.NewHost(ks[0], segs[0].AttachID("a", 0), "a", netstack.DefaultConfig())
		near := &checked{Station: segs[0].AttachID("near", 2), t: t}
		near.OnReceive(func(*ethernet.Frame) {})
		far := &checked{Station: segs[1].AttachID("b", 1), t: t}
		b := netstack.NewHost(ks[1], far, "b", netstack.DefaultConfig())
		var farBeacons int
		b.BindUDP(9, func(int, uint16, []byte) { farBeacons++ })
		got := transfer(a, b, size)
		ks[0].Go("beacons", func(p *sim.Proc) {
			for n := 0; n < beacons; n++ {
				a.SendUDP(ethernet.Broadcast, uint16(n), 9, beacon(n))
				p.Sleep(200 * sim.Microsecond)
			}
		})
		eng.Run(true)
		if !bytes.Equal(*got, stream(size)) {
			t.Errorf("server read %d bytes that are not the stream", len(*got))
		}
		if farBeacons != beacons || near.heard.Load() < beacons {
			t.Errorf("beacons heard: %d across the bridge, %d frames on the near segment, want %d each",
				farBeacons, near.heard.Load(), beacons)
		}
	})

	// bench's bridge probe in small: one frame from a host's slab goes
	// through DeliverFromTrunk a thousand times while the host keeps
	// carving new ones.
	t.Run("trunk-redeliver", func(t *testing.T) {
		const rounds = 1000
		k := sim.New(1)
		t.Cleanup(k.Close)
		home, away := ethernet.NewSegment(k, 0), ethernet.NewSegment(k, 0)
		a := netstack.NewHost(k, home.AttachID("a", 0), "a", netstack.DefaultConfig())
		var first *ethernet.Frame
		home.AttachID("tap", 1).OnReceive(func(f *ethernet.Frame) {
			if first == nil {
				first = f
			}
		})
		br := ethernet.NewBridge(away, 1, 2, 4, func(int, *ethernet.Frame) {})
		port := &checked{Station: away.AttachID("b", 2), t: t}
		port.OnReceive(func(f *ethernet.Frame) {
			if f != first || binary.LittleEndian.Uint32(f.Payload) != 0 {
				t.Errorf("heard %p (beacon %d), want the first frame %p", f, binary.LittleEndian.Uint32(f.Payload), first)
			}
		})
		a.SendUDP(ethernet.Broadcast, 0, 9, beacon(0))
		k.Run()
		for n := 1; n <= rounds; n++ {
			br.DeliverFromTrunk(0, first)
			a.SendUDP(ethernet.Broadcast, uint16(n), 9, beacon(n))
		}
		k.Run()
		if port.heard.Load() != rounds {
			t.Errorf("first frame heard %d times, want %d", port.heard.Load(), rounds)
		}
	})
}
