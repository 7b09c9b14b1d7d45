package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a coroutine that interleaves with the event
// loop so that exactly one of (event loop, some process) executes at a
// time. Processes express sequential blocking behaviour — compute phases,
// blocking sends and receives — that would be awkward as event callbacks.
//
// A process may only call its blocking methods (Sleep, Suspend) from
// its own body. Wake must be called from event context (or from another
// process), never from the process itself.
//
// Lifecycle: spawned (Go) → started (its start event creates the
// coroutine and links it into the kernel's registry) → parked and resumed
// any number of times → done, because the body returned, Kill unwound it,
// or Kernel.Close did. Only a done process has released its goroutine.
type Proc struct {
	k    *Kernel
	name string

	// The iter.Pull coroutine running the body. resume switches into it
	// and returns at its next park (or its end); yield is the park side
	// and reports false once stop has been called.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()

	prev, next *Proc // kernel registry of started, not yet done processes

	done    bool
	waiting bool // true while parked in Suspend
	killed  bool
}

// killedSignal unwinds a killed or closed process from its next (or
// current) park point back through the body to the spawn wrapper.
type killedSignal struct{}

// Go spawns a new process executing body. The body starts at the current
// virtual time (via an immediate event) and runs until it returns. A panic
// in the body surfaces in the caller of Run/RunUntil.
func (k *Kernel) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	k.At(k.now, "start:"+name, func() {
		if p.killed {
			p.done = true // killed before its first instruction
			return
		}
		p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				p.done = true
				k.unlink(p)
				if r := recover(); r != nil {
					if _, ok := r.(killedSignal); !ok {
						panic(r)
					}
				}
			}()
			body(p)
		})
		k.link(p)
		p.dispatch()
	})
	return p
}

// dispatch switches to the process and returns to the event loop when the
// process parks or finishes. Must be called from event context.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	prev := p.k.cur
	p.k.cur = p
	defer func() { p.k.cur = prev }() // also when a body panic passes through
	p.resume()
}

// park switches back to the event loop until dispatched again. Must be
// called from the process body. A process killed or closed while parked
// unwinds here instead of resuming.
func (p *Proc) park() {
	if !p.yield(struct{}{}) || p.killed {
		panic(killedSignal{})
	}
}

// link appends p to the kernel's registry: a ring through k.procs, so
// list order is spawn order and unlinking a finished process is O(1).
func (k *Kernel) link(p *Proc) {
	p.prev, p.next = k.procs.prev, &k.procs
	p.prev.next, k.procs.prev = p, p
}

// unlink drops p from the registry and clears its links, so a retained
// handle to a finished process does not pin its one-time neighbours.
func (k *Kernel) unlink(p *Proc) {
	p.prev.next, p.next.prev = p.next, p.prev
	p.prev, p.next = nil, nil
}

// Close releases every process that is still parked, in spawn order: each
// unwinds from its park point through the body's deferred calls, exactly
// as a killed process does, and its goroutine exits. A deferred call that
// tries to block again is cut short the same way. Call it once the
// simulation's results have been read: a run that skips it leaks one
// goroutine per parked process. Close is idempotent.
func (k *Kernel) Close() {
	if k.cur != nil {
		panic("sim: Close called from inside process " + k.cur.name)
	}
	defer func() { k.cur = nil }() // also when a deferred call's panic passes through
	for p := k.procs.next; p != &k.procs; p = k.procs.next {
		k.cur = p
		p.stop() // runs the spawn wrapper's defer, which unlinks p
	}
}

// Suspended reports the names of the processes parked in Suspend, in spawn
// order — after a drained Run, the parties to a deadlock (and any daemons).
func (k *Kernel) Suspended() []string {
	var names []string
	for p := k.procs.next; p != &k.procs; p = p.next {
		if p.waiting {
			names = append(names, p.name)
		}
	}
	return names
}

// Done reports whether the process body has returned (or been killed).
func (p *Proc) Done() bool { return p.done }

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// Kill terminates the process: its body unwinds from its current park
// point (Sleep, Suspend, Gate.Wait) without resuming the body — the
// host-crash primitive of the fault model. Kill must be called from event
// context or from a different process; it is idempotent, and killing a
// finished process is a no-op. Any pending wake events for the process
// become no-ops.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	if p.k.cur == p {
		panic("sim: process " + p.name + " killed itself")
	}
	p.killed = true
	p.waiting = false
	p.k.atProc(p.k.now, p)
}

// Sleep advances the process's virtual time by d, allowing other events to
// run meanwhile. A non-positive d yields without advancing time.
func (p *Proc) Sleep(d Duration) {
	p.checkSelf("Sleep")
	if d < 0 {
		d = 0
	}
	p.k.atProc(p.k.now.Add(d), p)
	p.park()
}

// Suspend parks the process until another component calls Wake. It is the
// building block for blocking queues and condition variables.
func (p *Proc) Suspend() {
	p.checkSelf("Suspend")
	p.waiting = true
	p.park()
}

// Wake schedules the process to resume at the current virtual time. It
// must be called from event context or from a different process; waking a
// process that is not suspended panics, since that always indicates a
// lost-wakeup bug in the caller.
func (p *Proc) Wake() {
	if p.k.cur == p {
		panic("sim: process " + p.name + " woke itself")
	}
	if p.done || p.killed {
		return // the process died while parked; nothing to wake
	}
	if !p.waiting {
		panic("sim: Wake on non-suspended process " + p.name)
	}
	p.waiting = false
	p.k.atProc(p.k.now, p)
}

func (p *Proc) checkSelf(op string) {
	if p.k.cur != p {
		panic(fmt.Sprintf("sim: %s called from outside process %s", op, p.name))
	}
}

// Gate is a FIFO wait queue of processes: a minimal condition variable for
// the simulation. The zero value is ready to use. Waiters live in a ring
// buffer, so a long-lived gate reuses its storage instead of re-slicing a
// growing backing array.
type Gate struct {
	buf  []*Proc
	head int
	n    int
}

// push appends p at the tail of the ring, growing as needed.
func (g *Gate) push(p *Proc) {
	if g.n == len(g.buf) {
		g.grow()
	}
	g.buf[(g.head+g.n)&(len(g.buf)-1)] = p
	g.n++
}

// pop removes and returns the head of the ring, which must be non-empty.
func (g *Gate) pop() *Proc {
	p := g.buf[g.head]
	g.buf[g.head] = nil
	g.head = (g.head + 1) & (len(g.buf) - 1)
	g.n--
	return p
}

// grow doubles the ring (power-of-two capacity), re-linearizing so head
// lands at index 0.
func (g *Gate) grow() {
	n := len(g.buf) * 2
	if n == 0 {
		n = 4
	}
	buf := make([]*Proc, n)
	for i := 0; i < g.n; i++ {
		buf[i] = g.buf[(g.head+i)&(len(g.buf)-1)]
	}
	g.buf = buf
	g.head = 0
}

// Wait parks p until a Signal or Broadcast reaches it.
func (g *Gate) Wait(p *Proc) {
	g.push(p)
	p.Suspend()
}

// Signal wakes the longest-waiting live process, if any, and reports
// whether one was woken. Processes that died while queued are discarded.
func (g *Gate) Signal() bool {
	for g.n > 0 {
		p := g.pop()
		if p.done || p.killed {
			continue
		}
		p.Wake()
		return true
	}
	return false
}

// Broadcast wakes every live waiting process in FIFO order. Only event
// context runs during the drain, so no new waiter can slip in mid-loop.
func (g *Gate) Broadcast() {
	for g.n > 0 {
		p := g.pop()
		if p.done || p.killed {
			continue
		}
		p.Wake()
	}
}

// Chan is an unbounded FIFO queue connecting event-context producers to
// process-context consumers. Put never blocks; Get blocks the calling
// process until an item is available. Items live in a ring buffer: the
// queue's memory stays proportional to its high-water mark instead of
// pinning every consumed item's backing array, and a drained queue
// reuses its storage allocation-free.
type Chan[T any] struct {
	buf  []T
	head int
	n    int
	gate Gate
}

// Put appends v and wakes one waiting consumer, if any.
func (c *Chan[T]) Put(v T) {
	if c.n == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.n)&(len(c.buf)-1)] = v
	c.n++
	c.gate.Signal()
}

// grow doubles the ring (power-of-two capacity), re-linearizing so head
// lands at index 0.
func (c *Chan[T]) grow() {
	n := len(c.buf) * 2
	if n == 0 {
		n = 4
	}
	buf := make([]T, n)
	for i := 0; i < c.n; i++ {
		buf[i] = c.buf[(c.head+i)&(len(c.buf)-1)]
	}
	c.buf = buf
	c.head = 0
}

// take removes and returns the head item, zeroing its slot so consumed
// values are not retained.
func (c *Chan[T]) take() T {
	var zero T
	v := c.buf[c.head]
	c.buf[c.head] = zero
	c.head = (c.head + 1) & (len(c.buf) - 1)
	c.n--
	return v
}

// Get removes and returns the oldest item, blocking p until one exists.
func (c *Chan[T]) Get(p *Proc) T {
	for c.n == 0 {
		c.gate.Wait(p)
	}
	return c.take()
}
