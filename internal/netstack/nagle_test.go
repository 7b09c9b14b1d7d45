package netstack

import (
	"bytes"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

func nagleRig(t *testing.T) (*sim.Kernel, *Host, *Host, *[]ethernet.Capture) {
	t.Helper()
	k := sim.New(1)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	cfg := DefaultConfig()
	cfg.Nagle = true
	a := NewHost(k, seg.Attach("a"), "a", cfg)
	b := NewHost(k, seg.Attach("b"), "b", cfg)
	caps := &[]ethernet.Capture{}
	seg.Tap(func(c ethernet.Capture) { *caps = append(*caps, c) })
	return k, a, b, caps
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	k, a, b, caps := nagleRig(t)
	l := b.Listen(80)
	const writes = 100
	const each = 100
	var got []byte
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		got = c.Read(p, writes*each)
	})
	k.Go("client", func(p *sim.Proc) {
		c := a.Connect(p, 1, 80)
		for i := 0; i < writes; i++ {
			c.Write(p, bytes.Repeat([]byte{byte(i)}, each))
		}
	})
	k.RunUntil(sim.Time(sim.Minute))
	if len(got) != writes*each {
		t.Fatalf("received %d bytes", len(got))
	}
	for i := 0; i < writes; i++ {
		if got[i*each] != byte(i) {
			t.Fatalf("stream corrupted at write %d", i)
		}
	}
	// Without Nagle this produces 100 small data frames; with Nagle the
	// stream coalesces to ~7 MSS-sized segments plus a tail.
	var dataFrames, fullFrames int
	for _, c := range *caps {
		if c.Proto == ethernet.ProtoTCP && c.Flags&ethernet.FlagData != 0 {
			dataFrames++
			if c.Size == 1518 {
				fullFrames++
			}
		}
	}
	if dataFrames > 20 {
		t.Errorf("%d data frames; Nagle should coalesce to ~8", dataFrames)
	}
	if fullFrames < 5 {
		t.Errorf("only %d maximal frames", fullFrames)
	}
}

func TestNagleSingleSmallWriteNotStuck(t *testing.T) {
	// A lone sub-MSS write with nothing outstanding must go immediately;
	// a second must wait for the first's ACK but still complete.
	k, a, b, caps := nagleRig(t)
	l := b.Listen(80)
	var got []byte
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		got = c.Read(p, 20)
	})
	k.Go("client", func(p *sim.Proc) {
		c := a.Connect(p, 1, 80)
		c.Write(p, make([]byte, 10))
		p.Sleep(sim.Millisecond) // ensure the first is on the wire alone
		c.Write(p, make([]byte, 10))
	})
	k.RunUntil(sim.Time(sim.Minute))
	if len(got) != 20 {
		t.Fatalf("received %d bytes", len(got))
	}
	// The second write must have waited for the delayed ACK (~200 ms).
	var dataTimes []sim.Time
	for _, c := range *caps {
		if c.Proto == ethernet.ProtoTCP && c.Flags&ethernet.FlagData != 0 {
			dataTimes = append(dataTimes, c.Time)
		}
	}
	if len(dataTimes) != 2 {
		t.Fatalf("%d data frames, want 2", len(dataTimes))
	}
	if gap := dataTimes[1].Sub(dataTimes[0]); gap < 150*sim.Millisecond {
		t.Errorf("second segment after %v; Nagle should hold it for the ACK", gap)
	}
}

func TestNagleLargeWritesUnaffected(t *testing.T) {
	// MSS-multiple writes flow exactly as without Nagle.
	k, a, b, caps := nagleRig(t)
	l := b.Listen(80)
	k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		c.Read(p, 10*MSS)
	})
	k.Go("client", func(p *sim.Proc) {
		c := a.Connect(p, 1, 80)
		c.Write(p, make([]byte, 10*MSS))
	})
	k.RunUntil(sim.Time(sim.Minute))
	full := 0
	for _, c := range *caps {
		if c.Size == 1518 {
			full++
		}
	}
	if full != 10 {
		t.Errorf("full frames = %d, want 10", full)
	}
}
