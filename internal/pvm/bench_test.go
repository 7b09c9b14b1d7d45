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

// A 16-byte message costs one allocation — the body handed to the
// application — plus its share of the frame slabs, the send chunk and the
// mailbox's growth.
func TestSmallMessageAllocs(t *testing.T) {
	const batch = 100
	exchange, recv := smallMessages(t)
	exchange(batch) // connect, and grow the queues to their steady size
	before := recv.MsgsRecv
	perMsg := testing.AllocsPerRun(50, func() { exchange(batch) }) / batch
	if got := recv.MsgsRecv - before; got != 51*batch {
		t.Fatalf("%d messages in 51 rounds, want %d", got, 51*batch)
	}
	if perMsg > 1.2 {
		t.Errorf("%.2f allocs per 16-byte message, want ≤ 1.2", perMsg)
	}
}

func BenchmarkSmallMessages(b *testing.B) {
	exchange, _ := smallMessages(b)
	exchange(100)
	b.ReportAllocs()
	b.ResetTimer()
	exchange(b.N)
}
