package pvm

import (
	"fmt"
	"reflect"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// The receive path of a message is an event-context parser; before it
// was one parked process per inbound connection. The parser must consume
// the same kernel events at the same (at, seq) positions the process did
// (DESIGN.md §8 "Message path"), so every constant below was recorded
// from the reader-process implementation and may not be re-pinned: a
// change in Executed or the final clock means the event stream moved.
// The one exception is the kill rows, re-recorded once when a crashed
// host's adaptor began dropping its queued frames (ethernet Silence):
// that moves the wire, not the reader, and every row without a kill
// still holds its reader-process constants.

type equivWant struct {
	executed uint64
	now      sim.Time
	msgs     []int64 // per task MsgsRecv
	bytes    []int64 // per task BytesRecv
	stats    ethernet.Stats
}

// equivScenario spawns one task per host on r.
type equivScenario struct {
	name  string
	build func(r *rig, p int)
}

func pattern(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + salt)
	}
	return b
}

// allToAll spawns p tasks; task i runs send(task, dst) towards every
// other task in ring order, then recv(task, src) from every other task.
func allToAll(r *rig, p int, send func(t *Task, dst int), recv func(t *Task, src int)) {
	for i := 0; i < p; i++ {
		i := i
		r.m.Spawn(fmt.Sprintf("t%d", i), i, func(t *Task) {
			for s := 1; s < p; s++ {
				send(t, (i+s)%p)
			}
			for s := 1; s < p; s++ {
				recv(t, (i-s+p)%p)
			}
		})
	}
}

var equivScenarios = []equivScenario{
	{"small", func(r *rig, p int) {
		allToAll(r, p,
			func(t *Task, dst int) {
				for n := 0; n < 40; n++ {
					t.Send(dst, n, pattern(16, n))
				}
			},
			func(t *Task, src int) {
				for n := 0; n < 40; n++ {
					t.Recv(src, n)
				}
			})
	}},
	{"frags", func(r *rig, p int) {
		allToAll(r, p,
			func(t *Task, dst int) {
				sendFrags(t, dst, 3, [][]byte{pattern(700, 1), pattern(3000, 2), pattern(5, 3)})
			},
			func(t *Task, src int) { t.Recv(src, 3) })
	}},
	{"bulk", func(r *rig, p int) {
		allToAll(r, p,
			func(t *Task, dst int) { t.Send(dst, 9, pattern(1<<20, dst)) },
			func(t *Task, src int) { t.Recv(src, 9) })
	}},
	// The sender's host dies with a 1 MB message half on the wire: the
	// receivers hold a partial message that must never be delivered.
	{"kill-sender", func(r *rig, p int) {
		r.m.Spawn("t0", 0, func(t *Task) {
			for dst := 1; dst < p; dst++ {
				t.Send(dst, 1, pattern(16, dst))
			}
			t.Send(1, 2, pattern(1<<20, 0))
		})
		for i := 1; i < p; i++ {
			r.m.Spawn(fmt.Sprintf("t%d", i), i, func(t *Task) {
				t.Recv(0, 1)
				t.RecvErr(0, 2)
			})
		}
		r.k.After(300*sim.Millisecond, "crash", func() {
			r.m.KillHost(0)
			r.m.MarkHostDead(0)
		})
	}},
	// The receiver's host dies mid-message: its live readers are killed.
	{"kill-receiver", func(r *rig, p int) {
		r.m.Spawn("t0", 0, func(t *Task) {
			for src := 1; src < p; src++ {
				t.Recv(src, 1)
			}
			t.Recv(1, 2)
		})
		for i := 1; i < p; i++ {
			i := i
			r.m.Spawn(fmt.Sprintf("t%d", i), i, func(t *Task) {
				t.Send(0, 1, pattern(16, i))
				if i == 1 {
					t.SendErr(0, 2, pattern(1<<20, 0))
				}
			})
		}
		r.k.After(300*sim.Millisecond, "crash", func() {
			r.m.KillHost(0)
			r.m.MarkHostDead(0)
		})
	}},
	// An idle inbound connection is reset under its reader; data that
	// arrives on it afterwards is acknowledged by the stack and dropped.
	{"reset-idle", func(r *rig, p int) {
		var recv *Task
		recv = r.m.Spawn("t0", 0, func(t *Task) {
			for src := 1; src < p; src++ {
				t.Recv(src, 1)
			}
		})
		for i := 1; i < p; i++ {
			i := i
			r.m.Spawn(fmt.Sprintf("t%d", i), i, func(t *Task) {
				t.Send(0, 1, pattern(16, i))
				t.Sleep(2 * sim.Second)
				t.Send(0, 2, pattern(16, i))
			})
		}
		r.k.After(sim.Second, "reset", func() { recv.inConns[0].Reset() })
	}},
}

var equivWants = map[string]equivWant{
	"small/p2":         {executed: 496, now: 204566400, msgs: []int64{40, 40}, bytes: []int64{640, 640}, stats: ethernet.Stats{Frames: 126, Bytes: 10508, Collisions: 21}},
	"frags/p2":         {executed: 144, now: 210616000, msgs: []int64{1, 1}, bytes: []int64{3705, 3705}, stats: ethernet.Stats{Frames: 34, Bytes: 9446, Collisions: 13}},
	"bulk/p2":          {executed: 10861, now: 2551990400, msgs: []int64{1, 1}, bytes: []int64{1048576, 1048576}, stats: ethernet.Stats{Frames: 2164, Bytes: 2222712, Collisions: 1260}},
	"kill-sender/p2":   {executed: 1663, now: 300000000, msgs: []int64{0, 1}, bytes: []int64{0, 16}, stats: ethernet.Stats{Frames: 304, Bytes: 309672, Collisions: 218}},
	"kill-receiver/p2": {executed: 1682, now: 312139200, msgs: []int64{1, 0}, bytes: []int64{16, 0}, stats: ethernet.Stats{Frames: 314, Bytes: 324852, Collisions: 218}},
	"reset-idle/p2":    {executed: 24, now: 2200267200, msgs: []int64{1, 0}, bytes: []int64{16, 0}, stats: ethernet.Stats{Frames: 7, Bytes: 486}},
	"small/p4":         {executed: 2703, now: 307249600, msgs: []int64{120, 120, 120, 120}, bytes: []int64{1920, 1920, 1920, 1920}, stats: ethernet.Stats{Frames: 756, Bytes: 63048, Collisions: 141}},
	"frags/p4":         {executed: 930, now: 276150400, msgs: []int64{3, 3, 3, 3}, bytes: []int64{11115, 11115, 11115, 11115}, stats: ethernet.Stats{Frames: 204, Bytes: 56676, Collisions: 98}},
	"bulk/p4":          {executed: 71693, now: 13359480000, msgs: []int64{3, 3, 3, 3}, bytes: []int64{3145728, 3145728, 3145728, 3145728}, stats: ethernet.Stats{Frames: 13010, Bytes: 13337780, Collisions: 9202, MaxBackoffHit: 441}},
	"kill-sender/p4":   {executed: 1786, now: 300000000, msgs: []int64{0, 1, 1, 1}, bytes: []int64{0, 16, 16, 16}, stats: ethernet.Stats{Frames: 326, Bytes: 322708, Collisions: 228}},
	"kill-receiver/p4": {executed: 1821, now: 301608000, msgs: []int64{3, 0, 0, 0}, bytes: []int64{48, 0, 0, 0}, stats: ethernet.Stats{Frames: 324, Bytes: 325512, Collisions: 241}},
	"reset-idle/p4":    {executed: 85, now: 2201196800, msgs: []int64{5, 0, 0, 0}, bytes: []int64{80, 0, 0, 0}, stats: ethernet.Stats{Frames: 21, Bytes: 1458, Collisions: 5}},
}

func TestReaderEventEquivalence(t *testing.T) {
	for _, p := range []int{2, 4} {
		for _, sc := range equivScenarios {
			name := fmt.Sprintf("%s/p%d", sc.name, p)
			t.Run(name, func(t *testing.T) {
				r := newRig(t, p, Config{})
				sc.build(r, p)
				r.k.Run()
				got := equivWant{executed: r.k.Executed(), now: r.k.Now(), stats: r.seg.Stats()}
				for _, task := range r.m.Tasks() {
					got.msgs = append(got.msgs, task.MsgsRecv)
					got.bytes = append(got.bytes, task.BytesRecv)
				}
				if want := equivWants[name]; !reflect.DeepEqual(got, want) {
					t.Errorf("event stream moved:\n got  %+v\n want %+v", got, want)
				}
			})
		}
	}
}

func TestPartialMessageFromDeadPeerNeverDelivered(t *testing.T) {
	r := newRig(t, 2, Config{})
	r.m.Spawn("send", 0, func(task *Task) { task.Send(1, 2, pattern(1<<20, 0)) })
	var err error
	recv := r.m.Spawn("recv", 1, func(task *Task) { _, _, _, err = task.RecvErr(0, 2) })
	r.k.After(300*sim.Millisecond, "crash", func() {
		if got := recv.inConns[0].SegsIn; got < 10 {
			t.Errorf("only %d segments in at the crash: not mid-message", got)
		}
		r.m.KillHost(0)
		r.m.MarkHostDead(0)
	})
	r.k.Run()
	if err != ErrPeerDead {
		t.Errorf("RecvErr = %v, want ErrPeerDead", err)
	}
	if recv.MsgsRecv != 0 || queued(recv, 0, 2) {
		t.Errorf("truncated message delivered: MsgsRecv %d", recv.MsgsRecv)
	}
}

// KillHost costs one event per live process or reader on the host, and a
// killed reader's connection failing afterwards (the stack crash inside
// KillHost, a late Reset) schedules nothing more.
func TestKillThenLateDataSchedulesNothing(t *testing.T) {
	r := newRig(t, 2, Config{})
	r.m.Spawn("send", 0, func(task *Task) {
		task.Send(1, 1, pattern(16, 0))
		task.Sleep(2 * sim.Second)
		task.SendErr(1, 1, pattern(16, 0)) // the host is down: never heard
	})
	recv := r.m.Spawn("recv", 1, func(task *Task) { task.Recv(0, 99) })
	r.k.After(sim.Second, "crash", func() {
		before := r.k.Pending()
		r.m.KillHost(1)
		recv.inConns[0].Reset()
		// The task, its accept daemon, and its one parked reader.
		if got := r.k.Pending() - before; got != 3 {
			t.Errorf("KillHost scheduled %d events, want 3", got)
		}
	})
	r.k.RunUntil(sim.Time(5 * sim.Second)) // the sender retransmits into the void forever
	if recv.MsgsRecv != 1 {
		t.Errorf("MsgsRecv = %d, want 1", recv.MsgsRecv)
	}
}
