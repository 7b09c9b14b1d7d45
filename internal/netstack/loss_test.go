package netstack

import (
	"bytes"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// lossRig builds two hosts on a segment with injected frame corruption.
func lossRig(t *testing.T, seed int64, dropProb float64) (*sim.Kernel, *ethernet.Segment, *Host, *Host) {
	t.Helper()
	k := sim.New(seed)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	a := NewHost(k, seg.Attach("a"), "a", DefaultConfig())
	b := NewHost(k, seg.Attach("b"), "b", DefaultConfig())
	seg.SetDropProb(dropProb)
	return k, seg, a, b
}

func TestLossyTransferStillDelivers(t *testing.T) {
	for _, drop := range []float64{0.01, 0.05, 0.20} {
		drop := drop
		k, seg, a, b := lossRig(t, 7, drop)
		msg := make([]byte, 400_000)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		var got []byte
		l := b.Listen(80)
		var conn *Conn
		k.Go("server", func(p *sim.Proc) {
			c := l.Accept(p)
			got = c.Read(p, len(msg))
		})
		k.Go("client", func(p *sim.Proc) {
			conn = a.Connect(p, 1, 80)
			conn.Write(p, msg)
		})
		k.RunUntil(sim.Time(10 * sim.Minute))
		if !bytes.Equal(got, msg) {
			t.Fatalf("drop=%v: payload corrupted or incomplete (%d/%d bytes)", drop, len(got), len(msg))
		}
		if seg.Stats().Corrupted == 0 {
			t.Fatalf("drop=%v: no frames were corrupted", drop)
		}
		if conn.Retransmits == 0 {
			t.Fatalf("drop=%v: recovery happened without retransmissions?", drop)
		}
	}
}

func TestLossySynRetransmission(t *testing.T) {
	// Heavy loss: the handshake itself must survive via SYN timers.
	k, _, a, b := lossRig(t, 3, 0.5)
	l := b.Listen(80)
	established := false
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		c.Read(p, 10)
		established = true
	})
	k.Go("client", func(p *sim.Proc) {
		c := a.Connect(p, 1, 80)
		c.Write(p, make([]byte, 10))
	})
	k.RunUntil(sim.Time(5 * sim.Minute))
	if !established {
		t.Fatal("handshake + 10-byte transfer did not survive 50% loss")
	}
}

func TestFastRetransmit(t *testing.T) {
	// Deterministic loss: every frame in a short mid-transfer window is
	// corrupted, forcing recovery through retransmission.
	k := sim.New(5)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	a := NewHost(k, seg.Attach("a"), "a", DefaultConfig())
	b := NewHost(k, seg.Attach("b"), "b", DefaultConfig())
	k.At(sim.Time(40*sim.Millisecond), "arm", func() { seg.SetDropProb(1) })
	k.At(sim.Time(45*sim.Millisecond), "disarm", func() { seg.SetDropProb(0) })

	var clientConn *Conn
	l := b.Listen(80)
	done := false
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		c.Read(p, 200_000)
		done = true
	})
	k.Go("client", func(p *sim.Proc) {
		clientConn = a.Connect(p, 1, 80)
		clientConn.Write(p, make([]byte, 200_000))
	})
	k.RunUntil(sim.Time(sim.Minute))
	if !done {
		t.Fatal("transfer did not complete after loss window")
	}
	if clientConn.Retransmits == 0 {
		t.Fatal("no retransmissions despite forced loss window")
	}
}

func TestDuplicateSegmentsCounted(t *testing.T) {
	// With loss, the receiver sees retransmitted data it may already
	// have (when the ACK, not the data, was lost); it must count and
	// discard them without corrupting the stream.
	k, _, a, b := lossRig(t, 11, 0.15)
	msg := make([]byte, 80_000)
	for i := range msg {
		msg[i] = byte(i)
	}
	var serverConn *Conn
	var got []byte
	l := b.Listen(80)
	k.Go("server", func(p *sim.Proc) {
		serverConn = l.Accept(p)
		got = serverConn.Read(p, len(msg))
	})
	k.Go("client", func(p *sim.Proc) {
		c := a.Connect(p, 1, 80)
		c.Write(p, msg)
	})
	k.RunUntil(sim.Time(10 * sim.Minute))
	if !bytes.Equal(got, msg) {
		t.Fatal("stream corrupted under loss")
	}
}

func TestLossDeterminism(t *testing.T) {
	run := func() (sim.Time, int64) {
		k, seg, a, b := lossRig(t, 21, 0.1)
		l := b.Listen(80)
		k.Go("server", func(p *sim.Proc) { l.Accept(p).Read(p, 50_000) })
		k.Go("client", func(p *sim.Proc) {
			c := a.Connect(p, 1, 80)
			c.Write(p, make([]byte, 50_000))
		})
		end := k.RunUntil(sim.Time(10 * sim.Minute))
		return end, seg.Stats().Corrupted
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("lossy run nondeterministic: (%v,%d) vs (%v,%d)", t1, c1, t2, c2)
	}
}

func TestDropProbValidation(t *testing.T) {
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	defer func() {
		if recover() == nil {
			t.Error("no panic for invalid drop probability")
		}
	}()
	seg.SetDropProb(1.5)
}

func TestNagleWithLoss(t *testing.T) {
	// Nagle coalescing and retransmission compose: a lossy link with
	// small writes still delivers the exact stream.
	k := sim.New(31)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	cfg := DefaultConfig()
	cfg.Nagle = true
	a := NewHost(k, seg.Attach("a"), "a", cfg)
	b := NewHost(k, seg.Attach("b"), "b", cfg)
	seg.SetDropProb(0.1)
	l := b.Listen(80)
	var got []byte
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		got = c.Read(p, 5000)
	})
	k.Go("client", func(p *sim.Proc) {
		c := a.Connect(p, 1, 80)
		for i := 0; i < 50; i++ {
			c.Write(p, bytes.Repeat([]byte{byte(i)}, 100))
		}
	})
	k.RunUntil(sim.Time(5 * sim.Minute))
	if len(got) != 5000 {
		t.Fatalf("received %d bytes", len(got))
	}
	for i := 0; i < 50; i++ {
		if got[i*100] != byte(i) {
			t.Fatalf("stream corrupted at write %d", i)
		}
	}
}

func TestBidirectionalUnderLoss(t *testing.T) {
	// Both directions retransmit independently over the same wire.
	k, _, a, b := lossRig(t, 41, 0.08)
	l := b.Listen(80)
	var fromClient, fromServer []byte
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		fromClient = c.Read(p, 30_000)
		c.Write(p, bytes.Repeat([]byte{0xBB}, 30_000))
	})
	k.Go("client", func(p *sim.Proc) {
		c := a.Connect(p, 1, 80)
		c.Write(p, bytes.Repeat([]byte{0xAA}, 30_000))
		fromServer = c.Read(p, 30_000)
	})
	k.RunUntil(sim.Time(10 * sim.Minute))
	if len(fromClient) != 30_000 || fromClient[100] != 0xAA {
		t.Fatal("client→server stream broken")
	}
	if len(fromServer) != 30_000 || fromServer[100] != 0xBB {
		t.Fatal("server→client stream broken")
	}
}
