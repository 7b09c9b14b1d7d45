package netstack

import (
	"bytes"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// pair is two hosts on a bare segment — no capture tap, so what a test
// counts is the stack's own work — with one established connection.
type pair struct {
	k              *sim.Kernel
	client, server *Conn
}

func newPair(t testing.TB) *pair {
	t.Helper()
	pr := &pair{k: sim.New(1)}
	t.Cleanup(pr.k.Close)
	seg := ethernet.NewSegment(pr.k, 0)
	a := NewHost(pr.k, seg.Attach("a"), "a", DefaultConfig())
	b := NewHost(pr.k, seg.Attach("b"), "b", DefaultConfig())
	l := b.Listen(80)
	pr.k.Go("accept", func(p *sim.Proc) { pr.server = l.Accept(p) })
	pr.k.Go("connect", func(p *sim.Proc) { pr.client = a.Connect(p, 1, 80) })
	pr.k.Run()
	if pr.client == nil || pr.server == nil {
		t.Fatal("handshake did not complete")
	}
	return pr
}

// A reader that never quite drains the connection must not make the
// receive buffer grow with the bytes that have passed through it.
func TestReceiveBufferStaysBounded(t *testing.T) {
	const writes, each = 200_000, 16
	pr := newPair(t)
	limit := 2 * DefaultConfig().SendWindow
	maxCap, sum := 0, 0
	pr.k.Go("server", func(p *sim.Proc) {
		// One byte short of a write, then whole writes: whenever the
		// reader has caught up, a byte is still buffered.
		n := each - 1
		for left := writes*each - 1; left > 0; left -= n {
			for _, b := range pr.server.Read(p, n) {
				sum += int(b)
			}
			if pr.server.Buffered() == 0 {
				t.Errorf("buffer drained after %d bytes", sum)
				return
			}
			maxCap = max(maxCap, cap(pr.server.rcvBuf))
			n = each
		}
	})
	pr.k.Go("client", func(p *sim.Proc) {
		buf := bytes.Repeat([]byte{1}, each)
		for i := 0; i < writes; i++ {
			pr.client.Write(p, buf)
		}
	})
	pr.k.Run()
	if want := writes*each - 1; sum != want {
		t.Errorf("read %d bytes, want %d", sum, want)
	}
	if maxCap > limit {
		t.Errorf("receive buffer grew to %d bytes, want ≤ %d", maxCap, limit)
	}
}

// Steady state, a 16-byte segment — Write, delivery, ACK, Read — costs
// the allocator nothing but its share of a frame slab.
func TestSmallSegmentAllocs(t *testing.T) {
	const batch = 100
	pr := newPair(t)
	var start sim.Gate
	pr.k.Go("server", func(p *sim.Proc) {
		for {
			pr.server.Read(p, 16)
		}
	})
	pr.k.Go("client", func(p *sim.Proc) {
		buf := make([]byte, 16)
		for {
			start.Wait(p)
			for i := 0; i < batch; i++ {
				pr.client.Write(p, buf)
			}
		}
	})
	round := func() {
		start.Signal()
		pr.k.Run()
	}
	pr.k.Run()
	round() // grow the queues and free lists to their steady size
	before := pr.server.SegsIn
	perSeg := testing.AllocsPerRun(50, round) / batch
	if got := pr.server.SegsIn - before; got != 51*batch {
		t.Fatalf("%d segments in 51 rounds, want %d", got, 51*batch)
	}
	if perSeg > 0.1 {
		t.Errorf("%.3f allocs per 16-byte segment, want ≤ 0.1", perSeg)
	}
}

// The OnReadable contract: one run at registration, then one per
// read-state change while armed by a short TryRead, none otherwise.
func TestOnReadableRunsOnlyWhenArmed(t *testing.T) {
	pr := newPair(t)
	var runs int
	var got []byte
	var readErr error
	pr.server.OnReadable("rd", func() {
		runs++
		for readErr == nil {
			var b []byte
			if b, readErr = pr.server.TryRead(4); readErr == nil {
				got = append(got, b...)
			}
		}
		if readErr == ErrWouldBlock {
			readErr = nil
		}
	})
	write := func(data string) {
		pr.k.Go("w", func(p *sim.Proc) { pr.client.Write(p, []byte(data)) })
		pr.k.Run()
	}
	pr.k.Run()
	if runs != 1 {
		t.Fatalf("runs at registration = %d, want 1", runs)
	}
	write("abcdef") // one segment: one run, which leaves "ef" buffered
	if runs != 2 || string(got) != "abcd" || pr.server.Buffered() != 2 {
		t.Fatalf("after one segment: runs %d, got %q, %d buffered", runs, got, pr.server.Buffered())
	}
	write("gh")
	if runs != 3 || string(got) != "abcdefgh" {
		t.Fatalf("after the second segment: runs %d, got %q", runs, got)
	}
	pr.server.Reset()
	pr.k.Run()
	if runs != 4 || readErr != ErrReset {
		t.Fatalf("after Reset: runs %d, err %v, want 4 and ErrReset", runs, readErr)
	}
	// The reader saw the error and did not ask again: data arriving on the
	// dead connection does not run it.
	write("ij")
	if runs != 4 {
		t.Errorf("unarmed reader ran again: runs %d", runs)
	}
}

func TestOnReadableNilRemovesReader(t *testing.T) {
	pr := newPair(t)
	runs := 0
	pr.server.OnReadable("rd", func() {
		runs++
		pr.server.TryRead(100)
	})
	pr.k.Run()
	pr.server.OnReadable("", nil)
	pr.k.Go("w", func(p *sim.Proc) { pr.client.Write(p, []byte("late")) })
	pr.k.Run()
	if runs != 1 {
		t.Errorf("removed reader ran %d times, want 1", runs)
	}
	if b, err := pr.server.TryRead(4); err != nil || string(b) != "late" {
		t.Errorf("TryRead after removal = %q, %v", b, err)
	}
}
