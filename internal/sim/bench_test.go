package sim

import (
	"runtime"
	"testing"
)

// eventChain returns a function that schedules and dispatches n events
// on k, one at a time, from a callback built once.
func eventChain(k *Kernel) func(n int) {
	left := 0
	var reschedule func()
	reschedule = func() {
		if left--; left > 0 {
			k.After(Microsecond, "e", reschedule)
		}
	}
	return func(n int) {
		left = n
		k.After(0, "e", reschedule)
		k.Run()
		if left > 0 {
			panic("sim: event chain stopped early")
		}
	}
}

// enginePingPong returns a function that bounces n hops between two
// partitions of a serial Engine with once-allocated callbacks: the
// round loop, staged injection, barrier and kernels, steady state.
func enginePingPong() func(n int) {
	parts := []*Kernel{New(1), New(2)}
	eng := NewEngineMatrix(parts, uniform(len(parts), 2*Millisecond))
	left := 0
	var fns [2]func()
	for src := range fns {
		fns[src] = func() {
			if left--; left > 0 {
				eng.Send(src, 1-src, parts[src].Now().Add(2*Millisecond), "hop", fns[1-src])
			}
		}
	}
	return func(n int) {
		left = n
		parts[0].After(0, "seed", fns[0])
		eng.Run(false)
		if left > 0 {
			panic("sim: ping-pong stopped early")
		}
	}
}

// engineRing returns a function that runs n hops on each of nPart
// partitions: one token per partition circles the ring with
// once-allocated callbacks, so every round advances every partition —
// in parallel mode, the rounds the executor shares out.
func engineRing(nPart int, parallel bool) func(n int) {
	parts := make([]*Kernel, nPart)
	for i := range parts {
		parts[i] = New(int64(i + 1))
	}
	eng := NewEngineMatrix(parts, uniform(nPart, 2*Millisecond))
	left := make([]int, nPart) // hops still to run on each partition
	fns := make([]func(), nPart)
	for src := range fns {
		fns[src] = func() {
			if left[src]--; left[src] > 0 {
				dst := (src + 1) % nPart
				eng.Send(src, dst, parts[src].Now().Add(2*Millisecond), "hop", fns[dst])
			}
		}
	}
	return func(n int) {
		for i, k := range parts {
			left[i] = n
			k.After(0, "seed", fns[i])
		}
		eng.Run(parallel)
		for _, l := range left {
			if l > 0 {
				panic("sim: ring stopped early")
			}
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS=1, under
// which a parallel Run would start no helper.
func mallocsPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// The kernel's schedule + dispatch of a pre-built event and the
// engine's window loop allocate nothing in steady state. A parallel Run
// starts its helpers once, so what it allocates does not grow with the
// number of rounds.
func TestEventLoopsDoNotAllocate(t *testing.T) {
	const batch = 256
	for _, tc := range []struct {
		name string
		run  func(n int)
	}{
		{"kernel schedule + dispatch", eventChain(New(1))},
		{"engine window ping-pong", enginePingPong()},
	} {
		tc.run(batch) // fill the event free list and the staging buffers
		if allocs := testing.AllocsPerRun(20, func() { tc.run(batch) }); allocs != 0 {
			t.Errorf("%s: %.1f allocs per %d events, want 0", tc.name, allocs, batch)
		}
	}

	// A parallel Run allocates its helpers' goroutines, and the runtime
	// allocates a wait record when a parked helper's P has none cached;
	// the allowance tolerates those, while an allocation in the round
	// loop would add 3×batch per longer Run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ring := engineRing(4, true)
	ring(4 * batch)
	short := mallocsPerRun(20, func() { ring(batch) })
	long := mallocsPerRun(20, func() { ring(4 * batch) })
	if allowance := float64(3*batch) / 100; long-short > allowance {
		t.Errorf("parallel engine ring: %.1f allocs per Run of %d rounds, %.1f per Run of %d", long, 4*batch, short, batch)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	run := eventChain(New(1))
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

func BenchmarkEngineWindow(b *testing.B) {
	run := enginePingPong()
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

func BenchmarkProcContextSwitch(b *testing.B) {
	k := New(1)
	k.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

func BenchmarkChanHandoff(b *testing.B) {
	k := New(1)
	var c Chan[int]
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Get(p)
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Put(i)
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
