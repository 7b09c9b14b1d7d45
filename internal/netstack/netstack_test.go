package netstack

import (
	"bytes"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

type rig struct {
	k     *sim.Kernel
	seg   *ethernet.Segment
	hosts []*Host
	caps  []ethernet.Capture
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	r := &rig{k: sim.New(1)}
	t.Cleanup(r.k.Close)
	r.seg = ethernet.NewSegment(r.k, 0)
	for i := 0; i < n; i++ {
		st := r.seg.Attach(string(rune('a' + i)))
		r.hosts = append(r.hosts, NewHost(r.k, st, st.Name(), DefaultConfig()))
	}
	r.seg.Tap(func(c ethernet.Capture) { r.caps = append(r.caps, c) })
	return r
}

func TestUDPDelivery(t *testing.T) {
	r := newRig(t, 2)
	var got []byte
	var gotSrc int
	var gotPort uint16
	r.hosts[1].BindUDP(500, func(src int, srcPort uint16, payload []byte) {
		gotSrc, gotPort, got = src, srcPort, payload
	})
	r.hosts[0].SendUDP(1, 600, 500, []byte("hello"))
	r.k.Run()
	if string(got) != "hello" || gotSrc != 0 || gotPort != 600 {
		t.Errorf("got %q from %d:%d", got, gotSrc, gotPort)
	}
	if len(r.caps) != 1 || r.caps[0].Proto != ethernet.ProtoUDP {
		t.Fatalf("caps = %+v", r.caps)
	}
	// 20 IP + 8 UDP + 5 data + 18 Ethernet = 51 → below the 58 min? No:
	// captured = 14 + 33 + 4 = 51.
	if r.caps[0].Size != 51 {
		t.Errorf("UDP capture size = %d", r.caps[0].Size)
	}
}

func TestUDPUnboundPortDropped(t *testing.T) {
	r := newRig(t, 2)
	r.hosts[0].SendUDP(1, 600, 999, []byte("x"))
	r.k.Run() // must not panic
}

func TestTCPConnectAccept(t *testing.T) {
	r := newRig(t, 2)
	l := r.hosts[1].Listen(80)
	var serverConn, clientConn *Conn
	r.k.Go("server", func(p *sim.Proc) { serverConn = l.Accept(p) })
	r.k.Go("client", func(p *sim.Proc) { clientConn = r.hosts[0].Connect(p, 1, 80) })
	r.k.Run()
	if serverConn == nil || clientConn == nil {
		t.Fatal("handshake did not complete")
	}
	if h, p := clientConn.RemoteAddr(); h != 1 || p != 80 {
		t.Errorf("client remote = %d:%d", h, p)
	}
	// Handshake = SYN, SYN-ACK, ACK: three 58-byte frames.
	if len(r.caps) != 3 {
		t.Fatalf("handshake frames = %d", len(r.caps))
	}
	for _, c := range r.caps {
		if c.Size != 58 {
			t.Errorf("handshake frame size = %d, want 58", c.Size)
		}
	}
}

func TestTCPDataTransfer(t *testing.T) {
	r := newRig(t, 2)
	l := r.hosts[1].Listen(80)
	msg := make([]byte, 10000)
	for i := range msg {
		msg[i] = byte(i)
	}
	var got []byte
	r.k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		got = c.Read(p, len(msg))
	})
	r.k.Go("client", func(p *sim.Proc) {
		c := r.hosts[0].Connect(p, 1, 80)
		c.Write(p, msg)
	})
	r.k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted in transit")
	}
}

func TestTCPSegmentation(t *testing.T) {
	// 10000 bytes = 6 full MSS segments + one 1240-byte remainder: the
	// trimodal size mix (1518-byte frames, one 1298-byte frame, 58-byte
	// ACKs) the paper describes.
	r := newRig(t, 2)
	l := r.hosts[1].Listen(80)
	r.k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		c.Read(p, 10000)
	})
	r.k.Go("client", func(p *sim.Proc) {
		c := r.hosts[0].Connect(p, 1, 80)
		c.Write(p, make([]byte, 10000))
	})
	r.k.Run()
	var full, rem, acks int
	for _, c := range r.caps {
		switch {
		case c.Size == 1518:
			full++
		case c.Size == 58:
			acks++
		case c.Size == 10000-6*MSS+58:
			rem++
		}
	}
	if full != 6 || rem != 1 {
		t.Errorf("full=%d rem=%d", full, rem)
	}
	if acks < 3 { // handshake ACK + ≥ 3 data ACKs (every 2nd of 7 segments)
		t.Errorf("acks = %d", acks)
	}
}

func TestTCPWriteBoundariesPreserved(t *testing.T) {
	// Two 100-byte writes must produce two 100-byte segments, never one
	// 200-byte segment — this is the PVM fragment behaviour.
	r := newRig(t, 2)
	l := r.hosts[1].Listen(80)
	r.k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		c.Read(p, 200)
	})
	r.k.Go("client", func(p *sim.Proc) {
		c := r.hosts[0].Connect(p, 1, 80)
		c.Write(p, make([]byte, 100))
		c.Write(p, make([]byte, 100))
	})
	r.k.Run()
	var seg140 int
	for _, c := range r.caps {
		if c.Size == 14+40+100+4 {
			seg140++
		}
		if c.Size == 14+40+200+4 {
			t.Error("writes were coalesced into one segment")
		}
	}
	if seg140 != 2 {
		t.Errorf("got %d 100-byte segments, want 2", seg140)
	}
}

func TestTCPWindowLimitsInflight(t *testing.T) {
	// With a 16 KB window, a 64 KB write cannot all be on the wire before
	// the first ACK returns: admitted bytes minus acked bytes stays ≤ the
	// window at every point.
	r := newRig(t, 2)
	l := r.hosts[1].Listen(80)
	var c0 *Conn
	r.k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		c.Read(p, 65536)
	})
	r.k.Go("client", func(p *sim.Proc) {
		c0 = r.hosts[0].Connect(p, 1, 80)
		c0.Write(p, make([]byte, 65536))
	})
	limit := int64(DefaultConfig().SendWindow)
	exceeded := false
	check := func() {
		if c0 != nil && c0.sndQueued-c0.sndUna > limit {
			exceeded = true
		}
	}
	for i := 0; i < 2000; i++ {
		r.k.After(sim.Duration(i)*sim.Millisecond, "check", check)
	}
	r.k.Run()
	if exceeded {
		t.Error("inflight exceeded send window")
	}
}

func TestTCPBidirectional(t *testing.T) {
	r := newRig(t, 2)
	l := r.hosts[1].Listen(80)
	var echo []byte
	r.k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		data := c.Read(p, 5000)
		c.Write(p, data)
	})
	r.k.Go("client", func(p *sim.Proc) {
		c := r.hosts[0].Connect(p, 1, 80)
		msg := bytes.Repeat([]byte("ab"), 2500)
		c.Write(p, msg)
		echo = c.Read(p, 5000)
	})
	r.k.Run()
	if len(echo) != 5000 || echo[0] != 'a' || echo[4999] != 'b' {
		t.Errorf("echo len=%d", len(echo))
	}
}

func TestTCPMultipleConnectionsDemux(t *testing.T) {
	r := newRig(t, 3)
	l := r.hosts[2].Listen(80)
	got := map[int][]byte{}
	r.k.Go("server", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			c := l.Accept(p)
			host, _ := c.RemoteAddr()
			got[host] = c.Read(p, 4)
		}
	})
	r.k.Go("c0", func(p *sim.Proc) {
		c := r.hosts[0].Connect(p, 2, 80)
		c.Write(p, []byte("aaaa"))
	})
	r.k.Go("c1", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		c := r.hosts[1].Connect(p, 2, 80)
		c.Write(p, []byte("bbbb"))
	})
	r.k.Run()
	if string(got[0]) != "aaaa" || string(got[1]) != "bbbb" {
		t.Errorf("got = %v", got)
	}
}

func TestDelayedAckTimer(t *testing.T) {
	// A single small segment must be acknowledged within the delayed-ACK
	// timeout even though the every-2nd threshold is never reached.
	r := newRig(t, 2)
	l := r.hosts[1].Listen(80)
	r.k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		c.Read(p, 10)
	})
	var conn *Conn
	r.k.Go("client", func(p *sim.Proc) {
		conn = r.hosts[0].Connect(p, 1, 80)
		conn.Write(p, make([]byte, 10))
	})
	r.k.Run()
	if conn.sndUna != 10 {
		t.Errorf("sndUna = %d, want 10 (delayed ACK missing)", conn.sndUna)
	}
	end := r.caps[len(r.caps)-1].Time
	if end > sim.Time(300*sim.Millisecond) {
		t.Errorf("final ACK at %v, want ≤ ~200ms", end)
	}
}

func TestConnectLoopbackPanics(t *testing.T) {
	r := newRig(t, 2)
	r.k.Go("client", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on loopback connect")
			}
		}()
		r.hosts[0].Connect(p, 0, 80)
	})
	r.k.Run()
}

func TestListenDuplicatePanics(t *testing.T) {
	r := newRig(t, 1)
	r.hosts[0].Listen(80)
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate listen")
		}
	}()
	r.hosts[0].Listen(80)
}

func TestOversizeUDPPanics(t *testing.T) {
	r := newRig(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic on oversize UDP")
		}
	}()
	r.hosts[0].SendUDP(1, 1, 1, make([]byte, MaxUDPPayload+1))
}

func TestLargeTransferDeterministic(t *testing.T) {
	run := func() (sim.Time, int) {
		k := sim.New(3)
		defer k.Close()
		seg := ethernet.NewSegment(k, 0)
		h0 := NewHost(k, seg.Attach("a"), "a", DefaultConfig())
		h1 := NewHost(k, seg.Attach("b"), "b", DefaultConfig())
		frames := 0
		seg.Tap(func(ethernet.Capture) { frames++ })
		l := h1.Listen(80)
		k.Go("server", func(p *sim.Proc) { l.Accept(p).Read(p, 200000) })
		k.Go("client", func(p *sim.Proc) {
			c := h0.Connect(p, 1, 80)
			c.Write(p, make([]byte, 200000))
		})
		return k.Run(), frames
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Errorf("nondeterministic: (%v,%d) vs (%v,%d)", t1, f1, t2, f2)
	}
	// 200 KB at ~1.1 MB/s effective plus ACK overhead: between 0.17 s and 0.5 s.
	if t1 < sim.Time(170*sim.Millisecond) || t1 > sim.Time(500*sim.Millisecond) {
		t.Errorf("transfer time = %v", t1)
	}
}
