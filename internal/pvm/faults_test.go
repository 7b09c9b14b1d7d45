package pvm

import (
	"errors"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/netstack"
	"fxnet/internal/sim"
)

// Satellite regression: a receive against a peer that died, with no
// matching message ever arriving, must return ErrPeerDead promptly
// instead of deadlocking the run.
func TestRecvErrDeadPeerReturnsWithinDeadline(t *testing.T) {
	r := newRig(t, 2, Config{})
	var err error
	var at sim.Time
	r.m.Spawn("waiter", 0, func(task *Task) {
		_, _, _, err = task.RecvErr(1, 7)
		at = r.k.Now()
	})
	r.m.Spawn("victim", 1, func(task *Task) {
		task.Recv(0, 99) // blocks forever; killed with its host
	})
	r.k.After(2*sim.Second, "crash", func() {
		r.m.KillHost(1)
		r.m.MarkHostDead(1)
	})
	r.k.Run()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("RecvErr = %v, want ErrPeerDead", err)
	}
	// The death mark wakes the receiver directly, at the instant of the
	// mark.
	if at != sim.Time(2*sim.Second) {
		t.Errorf("receiver unblocked at %v, want 2s (the death mark)", at)
	}
}

func TestHeartbeatDetectorMarksCrashedHost(t *testing.T) {
	cfg := Config{
		KeepaliveInterval: sim.Second,
		KeepalivePayload:  32,
		HeartbeatMisses:   3,
	}
	r := newRig(t, 3, cfg)
	var err error
	var at sim.Time
	r.m.Spawn("waiter", 0, func(task *Task) {
		_, _, _, err = task.RecvErr(1, 7)
		at = r.k.Now()
	})
	r.m.Spawn("victim", 1, func(task *Task) {
		task.Recv(0, 99)
	})
	r.m.Spawn("bystander", 2, func(task *Task) {})
	// Only the crash — no explicit mark; detection is the daemons' job.
	r.k.After(5*sim.Second, "crash", func() { r.m.KillHost(1) })
	r.k.Run()
	if !r.m.HostDead(1) {
		t.Fatal("failure detector never marked host 1 dead")
	}
	if r.m.HostDead(0) || r.m.HostDead(2) {
		t.Fatal("live hosts marked dead")
	}
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("RecvErr = %v, want ErrPeerDead via heartbeat detection", err)
	}
	// Detection within misses × interval plus one scan tick of the crash.
	if at < sim.Time(5*sim.Second) || at > sim.Time(10*sim.Second) {
		t.Errorf("detected at %v, want within ~4s of the 5s crash", at)
	}
}

func TestCancelPoisonsBlockedRecv(t *testing.T) {
	sentinel := errors.New("team aborted")
	r := newRig(t, 2, Config{})
	var err error
	var victim *Task
	victim = r.m.Spawn("blocked", 0, func(task *Task) {
		_, _, _, err = task.RecvErr(1, 7)
	})
	r.m.Spawn("peer", 1, func(task *Task) {})
	r.k.After(sim.Second, "cancel", func() { victim.Cancel(sentinel) })
	r.k.Run()
	if !errors.Is(err, sentinel) {
		t.Errorf("canceled recv = %v, want the cancel cause", err)
	}
}

// Killing a host must terminate its tasks without wedging the machine:
// the survivor finishes, daemons quiesce, and the run drains.
func TestKillHostLeavesMachineRunnable(t *testing.T) {
	r := newRig(t, 2, Config{})
	done := false
	r.m.Spawn("survivor", 0, func(task *Task) {
		task.Proc().Sleep(10 * sim.Second)
		done = true
	})
	r.m.Spawn("victim", 1, func(task *Task) {
		task.Recv(0, 99)
	})
	r.k.After(2*sim.Second, "crash", func() { r.m.KillHost(1) })
	r.k.Run()
	if !done {
		t.Fatal("survivor did not run to completion after KillHost")
	}
}

// Connect retry with capped exponential backoff: a link outage that ends
// before the retries are exhausted leaves the peer reachable.
func TestConnectRetriesSpanLinkOutage(t *testing.T) {
	k := sim.New(1)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	ncfg := netstack.DefaultConfig()
	ncfg.MaxRetransmits = 2 // individual connect attempts give up
	var hosts []*netstack.Host
	for i := 0; i < 2; i++ {
		st := seg.Attach(string(rune('a' + i)))
		hosts = append(hosts, netstack.NewHost(k, st, st.Name(), ncfg))
	}
	m := NewMachine(k, hosts, Config{
		ConnectRetries: 5,
		ConnectBackoff: 500 * sim.Millisecond,
	})

	seg.SetLinkDown(1, true) // outage at launch
	var sendErr error
	m.Spawn("sender", 0, func(task *Task) {
		sendErr = task.SendErr(1, 5, []byte("late"))
	})
	var got []byte
	m.Spawn("receiver", 1, func(task *Task) {
		_, _, got = task.Recv(0, 5)
	})
	k.After(4*sim.Second, "restore", func() { seg.SetLinkDown(1, false) })
	k.Run()
	if sendErr != nil {
		t.Fatalf("send across outage = %v, want success after retry", sendErr)
	}
	if string(got) != "late" {
		t.Errorf("received %q", got)
	}
}
