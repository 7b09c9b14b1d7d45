package sim

import "testing"

func TestProcSleep(t *testing.T) {
	k := New(1)
	var marks []Time
	k.Go("sleeper", func(p *Proc) {
		marks = append(marks, p.k.Now())
		p.Sleep(10 * Millisecond)
		marks = append(marks, p.k.Now())
		p.Sleep(5 * Millisecond)
		marks = append(marks, p.k.Now())
	})
	k.Run()
	want := []Time{0, Time(10 * Millisecond), Time(15 * Millisecond)}
	if len(marks) != 3 {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("marks[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestProcInterleavesWithEvents(t *testing.T) {
	k := New(1)
	var order []string
	k.After(5*Millisecond, "mid", func() { order = append(order, "event") })
	k.Go("p", func(p *Proc) {
		order = append(order, "start")
		p.Sleep(10 * Millisecond)
		order = append(order, "end")
	})
	k.Run()
	if len(order) != 3 || order[0] != "start" || order[1] != "event" || order[2] != "end" {
		t.Errorf("order = %v", order)
	}
}

func TestProcSuspendWake(t *testing.T) {
	k := New(1)
	var got Time
	p := k.Go("waiter", func(p *Proc) {
		p.Suspend()
		got = p.k.Now()
	})
	k.After(42*Millisecond, "waker", func() { p.Wake() })
	k.Run()
	if !p.Done() {
		t.Fatal("process did not finish")
	}
	if got != Time(42*Millisecond) {
		t.Errorf("woke at %v, want 42ms", got)
	}
}

func TestWakeNonSuspendedPanics(t *testing.T) {
	k := New(1)
	p := k.Go("idle", func(p *Proc) { p.Sleep(Second) })
	k.After(Millisecond, "bad-wake", func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic waking non-suspended process")
			}
		}()
		p.Wake()
	})
	k.Run()
}

func TestGateFIFO(t *testing.T) {
	k := New(1)
	var g Gate
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Go("w", func(p *Proc) {
			g.Wait(p)
			order = append(order, i)
		})
	}
	k.After(Millisecond, "sig", func() {
		if g.n != 3 {
			t.Errorf("Len = %d, want 3", g.n)
		}
		g.Signal()
	})
	k.After(2*Millisecond, "bcast", func() { g.Broadcast() })
	k.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v, want [0 1 2]", order)
	}
	if g.Signal() {
		t.Error("Signal on empty gate reported a wake")
	}
}

func TestChanProducerConsumer(t *testing.T) {
	k := New(1)
	var c Chan[int]
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, c.Get(p))
		}
	})
	for i := 0; i < 5; i++ {
		i := i
		k.After(Duration(i+1)*Millisecond, "produce", func() { c.Put(i) })
	}
	k.Run()
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Errorf("got[%d] = %d", i, v)
		}
	}
}

func TestChanBufferedBeforeConsumer(t *testing.T) {
	k := New(1)
	var c Chan[int]
	c.Put(7)
	c.Put(8)
	var got []int
	k.Go("late-consumer", func(p *Proc) {
		got = append(got, c.Get(p), c.Get(p))
	})
	k.Run()
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Errorf("got = %v", got)
	}
}

func TestProcToProcHandoff(t *testing.T) {
	k := New(1)
	var ping, pong Chan[int]
	var trace []int
	k.Go("ping", func(p *Proc) {
		for i := 0; i < 3; i++ {
			ping.Put(i)
			trace = append(trace, pong.Get(p))
		}
	})
	k.Go("pong", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v := ping.Get(p)
			p.Sleep(Millisecond)
			pong.Put(v * 10)
		}
	})
	k.Run()
	if len(trace) != 3 || trace[0] != 0 || trace[1] != 10 || trace[2] != 20 {
		t.Errorf("trace = %v", trace)
	}
	if k.Now() != Time(3*Millisecond) {
		t.Errorf("final time = %v", k.Now())
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []string {
		k := New(99)
		var order []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			k.Go(name, func(p *Proc) {
				r := p.k.Rand("proc:" + p.name)
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(r.Intn(1000)) * Microsecond)
					order = append(order, p.name)
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
