package pvm

import (
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/netstack"
	"fxnet/internal/sim"
)

// smallMessages builds two hosts on a bare segment and returns a function
// that pushes n 16-byte messages from one task to the other and runs the
// kernel dry — the paper's SEQ kernel in miniature.
func smallMessages(tb testing.TB) (exchange func(n int), recv *Task) {
	k := sim.New(1)
	tb.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	hosts := []*netstack.Host{
		netstack.NewHost(k, seg.Attach("a"), "a", netstack.DefaultConfig()),
		netstack.NewHost(k, seg.Attach("b"), "b", netstack.DefaultConfig()),
	}
	m := NewMachine(k, hosts, Config{})
	var start sim.Gate
	want := 0
	m.Spawn("send", 0, func(t *Task) {
		body := make([]byte, 16)
		for {
			start.Wait(t.Proc())
			for i := 0; i < want; i++ {
				t.Send(1, 1, body)
			}
		}
	})
	recv = m.Spawn("recv", 1, func(t *Task) {
		for {
			t.Recv(0, 1)
		}
	})
	k.Run()
	return func(n int) {
		want = n
		start.Signal()
		k.Run()
	}, recv
}

// A stream of 16-byte messages allocates nothing per message: the send's
// frame and the received body are carved from the tasks' chunks, so what
// is left is their share of those chunks, the frame slabs and the
// mailbox's growth.
func TestSmallMessageAllocs(t *testing.T) {
	const batch = 1000
	exchange, recv := smallMessages(t)
	exchange(batch) // connect, and grow the queues to their steady size
	before := recv.MsgsRecv
	perMsg := testing.AllocsPerRun(20, func() { exchange(batch) }) / batch
	if got := recv.MsgsRecv - before; got != 21*batch {
		t.Fatalf("%d messages in 21 rounds, want %d", got, 21*batch)
	}
	if perMsg >= 0.01 {
		t.Errorf("%.4f allocs per 16-byte message, want < 0.01", perMsg)
	}
}

func BenchmarkSmallMessages(b *testing.B) {
	exchange, _ := smallMessages(b)
	exchange(100)
	b.ReportAllocs()
	b.ResetTimer()
	exchange(b.N)
}
