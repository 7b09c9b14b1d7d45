package pvm

import (
	"bytes"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/netstack"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

type rig struct {
	k   *sim.Kernel
	seg *ethernet.Segment
	m   *Machine
	col *trace.Collector
}

func newRig(t *testing.T, nHosts int, cfg Config) *rig {
	t.Helper()
	r := &rig{k: sim.New(1)}
	t.Cleanup(r.k.Close)
	r.seg = ethernet.NewSegment(r.k, 0)
	var hosts []*netstack.Host
	for i := 0; i < nHosts; i++ {
		st := r.seg.Attach(string(rune('a' + i)))
		hosts = append(hosts, netstack.NewHost(r.k, st, st.Name(), netstack.DefaultConfig()))
	}
	r.col = trace.Capture(r.seg)
	r.m = NewMachine(r.k, hosts, cfg)
	return r
}

func TestSendRecv(t *testing.T) {
	r := newRig(t, 2, Config{})
	var got []byte
	var gotSrc, gotTag int
	r.m.Spawn("t0", 0, func(task *Task) {
		task.Send(1, 42, []byte("payload"))
	})
	r.m.Spawn("t1", 1, func(task *Task) {
		gotSrc, gotTag, got = task.Recv(0, 42)
	})
	r.k.Run()
	if string(got) != "payload" || gotSrc != 0 || gotTag != 42 {
		t.Errorf("got %q from %d tag %d", got, gotSrc, gotTag)
	}
}

func TestRecvMatchesSourceAndTag(t *testing.T) {
	r := newRig(t, 3, Config{})
	var order []int
	r.m.Spawn("t0", 0, func(task *Task) {
		task.Send(2, 7, []byte{1})
	})
	r.m.Spawn("t1", 1, func(task *Task) {
		task.Send(2, 9, []byte{2})
	})
	r.m.Spawn("t2", 2, func(task *Task) {
		// Wait for t1's tag-9 message first regardless of arrival order.
		_, _, b := task.Recv(1, 9)
		order = append(order, int(b[0]))
		_, _, b = task.Recv(0, 7)
		order = append(order, int(b[0]))
	})
	r.k.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("order = %v", order)
	}
}

func TestLargeMessageIntegrity(t *testing.T) {
	r := newRig(t, 2, Config{})
	msg := make([]byte, 131072)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	var got []byte
	r.m.Spawn("send", 0, func(task *Task) { task.Send(1, 1, msg) })
	r.m.Spawn("recv", 1, func(task *Task) { got = recvBody(task, 0, 1) })
	r.k.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("large message corrupted")
	}
}

// TestSendDoesNotAliasBody: SendErr copies the body before it returns,
// so a caller may overwrite its buffer at once (AIRSHED reuses its
// transpose parts, SEQ its element), and a delivered body stays the
// application's while later messages are carved from the same chunk.
// Sizes straddle the carving limit and the send window.
func TestSendDoesNotAliasBody(t *testing.T) {
	r := newRig(t, 2, Config{})
	sizes := []int{16, carveMaxBody, carveMaxBody + 1, 40000, 0, 3}
	fill := func(b []byte, seed int) {
		for i := range b {
			b[i] = byte(i*7 + seed)
		}
	}
	r.m.Spawn("send", 0, func(task *Task) {
		buf := make([]byte, 40000)
		for i, n := range sizes {
			fill(buf[:n], i)
			if err := task.SendErr(1, 5, buf[:n]); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
			fill(buf, 100+i) // the transport must not see this
		}
	})
	var got [][]byte
	r.m.Spawn("recv", 1, func(task *Task) {
		for range sizes {
			got = append(got, recvBody(task, 0, 5))
		}
	})
	r.k.Run()
	if len(got) != len(sizes) {
		t.Fatalf("received %d of %d messages", len(got), len(sizes))
	}
	for i, n := range sizes {
		want := make([]byte, n)
		fill(want, i)
		if !bytes.Equal(got[i], want) {
			t.Errorf("message %d (%d bytes) does not hold the bytes sent", i, n)
		}
	}
}

func TestCopyLoopProducesMaximalSegments(t *testing.T) {
	r := newRig(t, 2, Config{})
	r.m.Spawn("send", 0, func(task *Task) { task.Send(1, 1, make([]byte, 20000)) })
	r.m.Spawn("recv", 1, func(task *Task) { recvBody(task, 0, 1) })
	r.k.Run()
	tr := r.col.Trace()
	var full, smallData int
	for _, p := range tr.Packets {
		if p.Flags&ethernet.FlagData == 0 || p.Proto != ethernet.ProtoTCP {
			continue
		}
		switch {
		case p.Size == 1518:
			full++
		case p.Size < 1518 && p.Size > 58:
			smallData++
		}
	}
	// 20024 bytes = 13 full segments + 1 remainder. Handshake SYNs also
	// land in smallData? No: SYN has no FlagData.
	if full != 13 {
		t.Errorf("full segments = %d, want 13", full)
	}
	if smallData != 1 {
		t.Errorf("partial segments = %d, want 1", smallData)
	}
}

func TestFragmentsProduceNonMaximalSegments(t *testing.T) {
	r := newRig(t, 2, Config{})
	// 40 fragments of 500 bytes: same total as one 20000-byte message,
	// but each fragment is its own socket write → ~40 mid-size packets.
	frags := make([][]byte, 40)
	for i := range frags {
		frags[i] = make([]byte, 500)
	}
	var got []byte
	r.m.Spawn("send", 0, func(task *Task) { sendFrags(task, 1, 1, frags) })
	r.m.Spawn("recv", 1, func(task *Task) { got = recvBody(task, 0, 1) })
	r.k.Run()
	if len(got) != 20000 {
		t.Fatalf("received %d bytes", len(got))
	}
	var full, mid int
	for _, p := range r.col.Trace().Packets {
		if p.Flags&ethernet.FlagData == 0 || p.Proto != ethernet.ProtoTCP {
			continue
		}
		switch {
		case p.Size == 1518:
			full++
		case p.Size >= 500 && p.Size < 1518:
			mid++
		}
	}
	if full != 0 {
		t.Errorf("full segments = %d, want 0 for fragmented send", full)
	}
	if mid < 40 {
		t.Errorf("mid-size segments = %d, want ≥ 40", mid)
	}
}

func TestBidirectionalExchange(t *testing.T) {
	r := newRig(t, 2, Config{})
	var a, b []byte
	r.m.Spawn("t0", 0, func(task *Task) {
		task.Send(1, 1, []byte("from0"))
		b = recvBody(task, 1, 2)
	})
	r.m.Spawn("t1", 1, func(task *Task) {
		a = recvBody(task, 0, 1)
		task.Send(0, 2, []byte("from1"))
	})
	r.k.Run()
	if string(a) != "from0" || string(b) != "from1" {
		t.Errorf("a=%q b=%q", a, b)
	}
}

func TestConnectionReuse(t *testing.T) {
	r := newRig(t, 2, Config{})
	r.m.Spawn("send", 0, func(task *Task) {
		for i := 0; i < 5; i++ {
			task.Send(1, i, []byte{byte(i)})
		}
	})
	var got []int
	r.m.Spawn("recv", 1, func(task *Task) {
		for i := 0; i < 5; i++ {
			_, tag, _ := task.Recv(0, i)
			got = append(got, tag)
		}
	})
	r.k.Run()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	// Exactly one handshake (3 control frames with SYN flag involved).
	var syns int
	for _, p := range r.col.Trace().Packets {
		if p.Flags&ethernet.FlagSyn != 0 {
			syns++
		}
	}
	if syns != 2 { // SYN + SYN-ACK
		t.Errorf("SYN frames = %d, want 2 (one handshake)", syns)
	}
}

func TestDaemonKeepalives(t *testing.T) {
	r := newRig(t, 3, Config{KeepaliveInterval: 100 * sim.Millisecond, KeepalivePayload: 32})
	r.m.Spawn("idle", 0, func(task *Task) { task.Sleep(sim.Second) })
	r.k.Run()
	var udp int
	for _, p := range r.col.Trace().Packets {
		if p.Proto == ethernet.ProtoUDP {
			udp++
		}
	}
	// Two slaves × ~10 keepalives, each echoed by the master.
	if udp < 30 || udp > 50 {
		t.Errorf("UDP keepalive frames = %d, want ≈40", udp)
	}
}

func TestDaemonsQuiesceWhenTasksDone(t *testing.T) {
	r := newRig(t, 2, Config{KeepaliveInterval: 50 * sim.Millisecond, KeepalivePayload: 16})
	r.m.Spawn("quick", 0, func(task *Task) {})
	end := r.k.Run()
	// The keepalive chain must stop shortly after the last task exits,
	// not run forever.
	if end > sim.Time(sim.Second) {
		t.Errorf("simulation ran to %v after tasks finished", end)
	}
}

// sendFrags is SendFragsErr failing the run on error.
func sendFrags(t *Task, dst, tag int, frags [][]byte) {
	if err := t.SendFragsErr(dst, tag, frags); err != nil {
		panic(err)
	}
}

// recvBody is Recv returning only the payload.
func recvBody(t *Task, src, tag int) []byte {
	_, _, body := t.Recv(src, tag)
	return body
}

// queued reports whether a message matching src and tag waits in t's
// mailbox.
func queued(t *Task, src, tag int) bool {
	for i := range t.mbox {
		if t.mbox[i].matches(src, tag) {
			return true
		}
	}
	return false
}

func TestProbe(t *testing.T) {
	r := newRig(t, 2, Config{})
	var before, after bool
	r.m.Spawn("send", 0, func(task *Task) {
		task.Sleep(10 * sim.Millisecond)
		task.Send(1, 5, []byte("x"))
	})
	r.m.Spawn("recv", 1, func(task *Task) {
		before = queued(task, 0, 5)
		task.Sleep(sim.Second) // let the message arrive
		after = queued(task, 0, 5)
		recvBody(task, 0, 5)
	})
	r.k.Run()
	if before {
		t.Error("Probe true before send")
	}
	if !after {
		t.Error("Probe false after send")
	}
}

func TestCountersAndEmptyFragList(t *testing.T) {
	r := newRig(t, 2, Config{})
	var sender, receiver *Task
	sender = r.m.Spawn("send", 0, func(task *Task) {
		task.Send(1, 1, make([]byte, 100))
		sendFrags(task, 1, 2, nil) // empty fragment list → empty body
	})
	receiver = r.m.Spawn("recv", 1, func(task *Task) {
		recvBody(task, 0, 1)
		if b := recvBody(task, 0, 2); len(b) != 0 {
			t.Errorf("empty-frag body = %d bytes", len(b))
		}
	})
	r.k.Run()
	if sender.MsgsSent != 2 || sender.BytesSent != 100 {
		t.Errorf("sender counters: %d msgs %d bytes", sender.MsgsSent, sender.BytesSent)
	}
	if receiver.MsgsRecv != 2 || receiver.BytesRecv != 100 {
		t.Errorf("receiver counters: %d msgs %d bytes", receiver.MsgsRecv, receiver.BytesRecv)
	}
}

func TestManyTasksAllToAll(t *testing.T) {
	const P = 4
	r := newRig(t, P, Config{})
	recvTotal := 0
	for i := 0; i < P; i++ {
		i := i
		r.m.Spawn("t", i, func(task *Task) {
			for s := 1; s < P; s++ {
				dst := (i + s) % P
				task.Send(dst, 100+i, []byte{byte(i)})
			}
			for s := 1; s < P; s++ {
				src := (i - s + P) % P
				_, _, b := task.Recv(src, 100+src)
				if int(b[0]) != src {
					t.Errorf("task %d got body %d from %d", i, b[0], src)
				}
				recvTotal++
			}
		})
	}
	r.k.Run()
	if recvTotal != P*(P-1) {
		t.Errorf("received %d messages, want %d", recvTotal, P*(P-1))
	}
}

func TestDeterministicRun(t *testing.T) {
	run := func() (sim.Time, int) {
		k := sim.New(11)
		defer k.Close()
		seg := ethernet.NewSegment(k, 0)
		var hosts []*netstack.Host
		for i := 0; i < 4; i++ {
			st := seg.Attach(string(rune('a' + i)))
			hosts = append(hosts, netstack.NewHost(k, st, st.Name(), netstack.DefaultConfig()))
		}
		frames := 0
		seg.Tap(func(ethernet.Capture) { frames++ })
		m := NewMachine(k, hosts, DefaultConfig())
		for i := 0; i < 4; i++ {
			i := i
			m.Spawn("t", i, func(task *Task) {
				for s := 1; s < 4; s++ {
					task.Send((i+s)%4, 1, make([]byte, 5000))
				}
				for s := 1; s < 4; s++ {
					recvBody(task, (i-s+4)%4, 1)
				}
			})
		}
		return k.Run(), frames
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Errorf("nondeterministic: (%v,%d) vs (%v,%d)", t1, f1, t2, f2)
	}
}

func TestFragmentLargerThanWindow(t *testing.T) {
	// A single fragment larger than the TCP send window must still flow
	// (the window pacing drains it segment by segment).
	r := newRig(t, 2, Config{})
	big := make([]byte, 64*1024)
	for i := range big {
		big[i] = byte(i * 13)
	}
	var got []byte
	r.m.Spawn("send", 0, func(task *Task) {
		sendFrags(task, 1, 1, [][]byte{big[:40000], big[40000:]})
	})
	r.m.Spawn("recv", 1, func(task *Task) { got = recvBody(task, 0, 1) })
	r.k.Run()
	if len(got) != len(big) {
		t.Fatalf("received %d bytes", len(got))
	}
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("corrupted at %d", i)
		}
	}
}

func TestZeroLengthMessage(t *testing.T) {
	r := newRig(t, 2, Config{})
	done := false
	r.m.Spawn("send", 0, func(task *Task) { task.Send(1, 9, nil) })
	r.m.Spawn("recv", 1, func(task *Task) {
		if b := recvBody(task, 0, 9); len(b) != 0 {
			t.Errorf("body = %d bytes", len(b))
		}
		done = true
	})
	r.k.Run()
	if !done {
		t.Fatal("zero-length message lost")
	}
}

func TestInterleavedTagsManyMessages(t *testing.T) {
	// Many messages with interleaved tags must each match correctly and
	// preserve per-tag FIFO order.
	r := newRig(t, 2, Config{})
	const n = 40
	r.m.Spawn("send", 0, func(task *Task) {
		for i := 0; i < n; i++ {
			task.Send(1, i%4, []byte{byte(i)})
		}
	})
	var order [4][]byte
	r.m.Spawn("recv", 1, func(task *Task) {
		for i := 0; i < n; i++ {
			tag := (n - 1 - i) % 4 // receive tags in a scrambled order
			_, _, b := task.Recv(0, tag)
			order[tag] = append(order[tag], b[0])
		}
	})
	r.k.Run()
	for tag := 0; tag < 4; tag++ {
		for i := 1; i < len(order[tag]); i++ {
			if order[tag][i] <= order[tag][i-1] {
				t.Fatalf("tag %d out of order: %v", tag, order[tag])
			}
		}
	}
}

// A received message must not stay reachable from the mailbox slice's dead
// tail: the body belongs to the application now.
func TestRecvReleasesConsumedMessage(t *testing.T) {
	r := newRig(t, 2, Config{})
	r.m.Spawn("send", 0, func(task *Task) {
		for tag := 0; tag < 3; tag++ {
			task.Send(1, tag, []byte{byte(tag)})
		}
	})
	var recv *Task
	recv = r.m.Spawn("recv", 1, func(task *Task) {
		task.Sleep(sim.Second) // let all three queue
		task.Recv(0, 1)        // take the middle one
	})
	r.k.Run()
	if len(recv.mbox) != 2 || recv.mbox[0].tag != 0 || recv.mbox[1].tag != 2 || !queued(recv, 0, 2) || queued(recv, 0, 1) {
		t.Fatalf("mailbox after Recv: %+v", recv.mbox)
	}
	if tail := recv.mbox[:3][2]; tail.body != nil || tail.tag != 0 {
		t.Errorf("vacated mailbox slot still holds %+v", tail)
	}
}
