package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// goroutinesSettled reads the goroutine count once it has held still for
// 20 ms: a parallel Engine.Run's helpers have signalled their exit when
// Run returns but may finish it after the next test has started, and a
// baseline read too early counts them.
func goroutinesSettled() int {
	n, held := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); held < 20 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			held++
		} else {
			n, held = m, 0
		}
	}
	return n
}

// TestCloseUnwindsParkedProcsInSpawnOrder: Close runs the deferred calls
// of every process still parked — suspended or asleep — in spawn order,
// leaves finished and never-started processes alone, gives the goroutines
// back, and can be called again.
func TestCloseUnwindsParkedProcsInSpawnOrder(t *testing.T) {
	before := goroutinesSettled()
	k := New(1)
	var unwound []string
	spawn := func(name string, body func(p *Proc)) *Proc {
		return k.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			body(p)
		})
	}
	suspended := spawn("suspended", func(p *Proc) { p.Suspend(); t.Error("suspended resumed") })
	spawn("finished", func(p *Proc) { p.Sleep(Millisecond) })
	asleep := spawn("asleep", func(p *Proc) { p.Sleep(Second); t.Error("asleep resumed") })
	var gate Gate
	waiting := spawn("waiting", func(p *Proc) { gate.Wait(p); t.Error("waiting resumed") })
	k.RunUntil(Time(10 * Millisecond))
	neverStarted := spawn("never-started", func(p *Proc) {})

	if got, want := k.Suspended(), []string{"suspended", "waiting"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Suspended() = %v, want %v", got, want)
	}
	if got := runtime.NumGoroutine() - before; got != 3 {
		t.Errorf("%d goroutines held by parked procs before Close, want 3", got)
	}
	unwound = nil // drop "finished", which unwound by returning
	k.Close()
	if want := []string{"suspended", "asleep", "waiting"}; !reflect.DeepEqual(unwound, want) {
		t.Errorf("Close unwound %v, want %v", unwound, want)
	}
	for _, p := range []*Proc{suspended, asleep, waiting} {
		if !p.Done() {
			t.Errorf("%s not done after Close", p.name)
		}
	}
	if neverStarted.Done() {
		t.Error("never-started process marked done")
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Errorf("%d goroutines after Close, %d before the kernel existed", got, before)
	}
	if got := k.Suspended(); got != nil {
		t.Errorf("Suspended() after Close = %v", got)
	}
	k.Close()
	if len(unwound) != 3 {
		t.Errorf("second Close unwound again: %v", unwound)
	}
	// Close ends processes, not the kernel: stale wake events of closed
	// processes are no-ops, and the pending start event still fires.
	k.Run()
	if !neverStarted.Done() || len(unwound) != 4 {
		t.Errorf("after a further Run: never-started done=%v, unwound %v", neverStarted.Done(), unwound)
	}
}

// TestCloseCutsShortDeferredBlocking: a deferred call that blocks during
// the unwind is aborted by the kill signal — as it is for a killed
// process — and the defers below it still run.
func TestCloseCutsShortDeferredBlocking(t *testing.T) {
	for _, how := range []string{"close", "kill"} {
		k := New(1)
		var steps []string
		p := k.Go("p", func(p *Proc) {
			defer func() { steps = append(steps, "outer") }()
			defer func() {
				steps = append(steps, "blocking")
				p.Sleep(Millisecond)
				steps = append(steps, "resumed")
			}()
			p.Suspend()
		})
		k.Run()
		if how == "kill" {
			k.At(k.Now(), "kill", p.Kill)
			k.Run()
		}
		k.Close()
		if want := []string{"blocking", "outer"}; !reflect.DeepEqual(steps, want) {
			t.Errorf("%s: steps = %v, want %v", how, steps, want)
		}
		if !p.Done() {
			t.Errorf("%s: process not done", how)
		}
	}
}

// TestCloseFromInsideProcessPanics: a process cannot unwind itself.
func TestCloseFromInsideProcessPanics(t *testing.T) {
	k := New(1)
	var got any
	k.Go("self", func(p *Proc) {
		defer func() { got = recover() }()
		k.Close()
	})
	k.Run()
	if got == nil {
		t.Error("Close from inside a process did not panic")
	}
}

// TestBodyPanicReachesRunCaller: a panic in a process body surfaces in
// the goroutine that called Run, with its value intact, and the other
// processes can still be closed.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	before := goroutinesSettled()
	k := New(1)
	k.Go("bystander", func(p *Proc) { p.Suspend() })
	k.Go("faulty", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want \"boom\"", got)
	}
	k.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after Close, want %d", n, before)
	}
}

// TestKill: a killed process unwinds through its defers at its park point
// without resuming the body; one killed before its start event never runs.
func TestKill(t *testing.T) {
	before := goroutinesSettled()
	k := New(1)
	var log []string
	parked := k.Go("parked", func(p *Proc) {
		defer func() { log = append(log, "parked unwound") }()
		p.Sleep(Second)
		log = append(log, "parked resumed")
	})
	k.After(Millisecond, "kill", func() {
		parked.Kill()
		parked.Kill() // idempotent
		unborn := k.Go("unborn", func(p *Proc) { log = append(log, "unborn ran") })
		unborn.Kill()
		k.After(Millisecond, "check", func() {
			if !unborn.Done() {
				t.Error("process killed before its start event is not done")
			}
		})
	})
	end := k.Run()
	if want := []string{"parked unwound"}; !reflect.DeepEqual(log, want) {
		t.Errorf("log = %v, want %v", log, want)
	}
	if !parked.Done() || !parked.Killed() {
		t.Errorf("parked: done=%v killed=%v", parked.Done(), parked.Killed())
	}
	if end != Time(Second) {
		t.Errorf("run ended at %v: the dead process's wake event should still drain at 1s", end)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after the run, want %d (no Close needed: nothing is parked)", n, before)
	}
}

// TestRegistryDropsFinishedProcs: a kernel that keeps spawning short-lived
// processes holds on to none of them.
func TestRegistryDropsFinishedProcs(t *testing.T) {
	k := New(1)
	daemon := k.Go("daemon", func(p *Proc) { p.Suspend() })
	for i := 0; i < 1000; i++ {
		k.Go(fmt.Sprint("short", i), func(p *Proc) { p.Sleep(Microsecond) })
		k.Run()
	}
	if k.procs.next != daemon || k.procs.prev != daemon {
		t.Error("registry holds more than the one parked process")
	}
	k.Close()
	if k.procs.next != &k.procs || k.procs.prev != &k.procs {
		t.Error("registry not empty after Close")
	}
}

// TestHandoffDoesNotAllocate gates the hot path: a Sleep round trip and a
// Chan.Put → Wake → Get hand-off allocate nothing in steady state.
func TestHandoffDoesNotAllocate(t *testing.T) {
	k := New(1)
	defer k.Close()
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	var c Chan[int]
	k.Go("consumer", func(p *Proc) {
		for {
			c.Get(p)
		}
	})
	step := func() {
		c.Put(1)
		k.RunUntil(k.Now().Add(Microsecond))
	}
	for i := 0; i < 64; i++ {
		step() // fill the event free list and the rings
	}
	executed := k.Executed()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("%.1f allocs per Sleep + Chan hand-off, want 0", allocs)
	}
	if per := float64(k.Executed()-executed) / 1001; per != 2 {
		t.Errorf("%.2f dispatches per step, want 2 (one wake per process)", per)
	}
}
