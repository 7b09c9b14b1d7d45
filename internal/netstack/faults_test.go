package netstack

import (
	"cmp"
	"errors"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// newFaultRig builds a two-host rig with an explicit transport config,
// for the bounded-retry tests.
func newFaultRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{k: sim.New(1)}
	t.Cleanup(r.k.Close)
	r.seg = ethernet.NewSegment(r.k, 0)
	for i := 0; i < 2; i++ {
		st := r.seg.Attach(string(rune('a' + i)))
		r.hosts = append(r.hosts, NewHost(r.k, st, st.Name(), cfg))
	}
	return r
}

func TestConnectTimeoutAgainstDeadHost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConnectTimeout = 5 * sim.Second
	r := newFaultRig(t, cfg)
	r.seg.SetLinkDown(1, true) // SYNs vanish on the wire

	var err error
	var at sim.Time
	r.k.Go("client", func(p *sim.Proc) {
		_, err = r.hosts[0].ConnectErr(p, 1, 80)
		at = r.k.Now()
	})
	r.k.Run()
	if !errors.Is(err, ErrTimedOut) {
		t.Fatalf("ConnectErr = %v, want ErrTimedOut", err)
	}
	if at != sim.Time(5*sim.Second) {
		t.Errorf("connect failed at %v, want exactly the 5s deadline", at)
	}
}

func TestMaxRetransmitsBoundsSynRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetransmits = 3
	r := newFaultRig(t, cfg)
	r.seg.SetLinkDown(1, true)

	var err error
	r.k.Go("client", func(p *sim.Proc) {
		_, err = r.hosts[0].ConnectErr(p, 1, 80)
	})
	elapsed := r.k.Run()
	if !errors.Is(err, ErrTimedOut) {
		t.Fatalf("ConnectErr = %v, want ErrTimedOut", err)
	}
	// RTO 1s doubling: retries at ~1, 2, 4 s; the 4th timeout fails the
	// connection. Without the bound the run would never terminate.
	if elapsed > sim.Time(20*sim.Second) {
		t.Errorf("gave up at %v, expected within ~15s", elapsed)
	}
}

func TestMaxRetransmitsFailsEstablishedConn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetransmits = 3
	r := newFaultRig(t, cfg)

	l := r.hosts[1].Listen(80)
	var cliErr error
	r.k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		// Blocks forever on bytes that never arrive; the kernel still
		// drains because the writer's bounded retries terminate.
		_, _ = c.ReadErr(p, 4000)
	})
	r.k.Go("client", func(p *sim.Proc) {
		c := r.hosts[0].Connect(p, 1, 80)
		p.Sleep(100 * sim.Millisecond)
		r.seg.SetLinkDown(1, true) // blackhole mid-connection
		// Larger than the send window, so the writer blocks on ACKs
		// that never come and observes the retransmit bound.
		cliErr = c.WriteErr(p, make([]byte, 64*1024))
	})
	r.k.Run()
	if !errors.Is(cliErr, ErrTimedOut) {
		t.Errorf("writer error = %v, want ErrTimedOut", cliErr)
	}
}

func TestCrashResetsConnections(t *testing.T) {
	r := newFaultRig(t, DefaultConfig())
	l := r.hosts[1].Listen(80)
	var cliErr error
	r.k.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		_, _ = c.ReadErr(p, 10)
	})
	r.k.Go("client", func(p *sim.Proc) {
		c := r.hosts[0].Connect(p, 1, 80)
		p.Sleep(time500ms)
		r.hosts[0].Crash()
		_, cliErr = c.ReadErr(p, 10)
	})
	r.k.Run()
	if !errors.Is(cliErr, ErrReset) {
		t.Errorf("read on crashed host = %v, want ErrReset", cliErr)
	}
	if !r.hosts[0].Down() {
		t.Errorf("host not marked down after Crash")
	}
}

const time500ms = 500 * sim.Millisecond

// With unbounded retries the backoff outgrows any shift: RTO << 34
// wrapped negative, slipped under the MaxRTO clamp and scheduled the
// timer in the past. Past 64 consecutive timeouts against a blackholed
// peer the deadline stays within MaxRTO of now, and an unset MaxRTO
// takes the one-day ceiling.
func TestRTOBackoffStaysClamped(t *testing.T) {
	for _, maxRTO := range []sim.Duration{8 * sim.Second, 0} {
		cfg := DefaultConfig()
		cfg.MaxRTO = maxRTO
		limit := cmp.Or(maxRTO, rtoCeiling)
		r := newFaultRig(t, cfg)
		l := r.hosts[1].Listen(80)
		r.k.Go("server", func(p *sim.Proc) {
			_, _ = l.Accept(p).ReadErr(p, 1<<20)
		})
		var c *Conn
		r.k.Go("client", func(p *sim.Proc) {
			c = r.hosts[0].Connect(p, 1, 80)
			p.Sleep(100 * sim.Millisecond)
			r.seg.SetLinkDown(1, true)
			_ = c.WriteErr(p, make([]byte, 64*1024))
		})
		for step := 0; c == nil || c.rtoBackoff <= 64; step++ {
			now := r.k.RunUntil(r.k.Now().Add(limit))
			if step == 200 {
				t.Fatalf("MaxRTO %v: %d timeouts after 200 steps of %v", maxRTO, c.rtoBackoff, limit)
			}
			if c == nil {
				continue
			}
			if d := c.rtoDeadline; d <= now || d > now.Add(limit) {
				t.Fatalf("MaxRTO %v: after %d timeouts the deadline is %v at %v, want within (now, now+%v]",
					maxRTO, c.rtoBackoff, d, now, limit)
			}
		}
	}
}
