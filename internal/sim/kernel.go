package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// event is one scheduled callback. Events are owned by the kernel: they
// live either in the timer heap, in the same-instant ring, or on the
// free list, and are recycled once they leave the queue. The gen counter
// is bumped on every recycle so that stale Event handles become no-ops
// instead of touching an unrelated reuse of the same slot.
type event struct {
	at     Time
	seq    uint64
	call   func(any) // runs as call(arg); when nil, arg is At's func()
	arg    any
	proc   *Proc // when non-nil, dispatch this process instead of call
	gen    uint64
	cancel bool
}

// Event is a handle to a scheduled callback. The zero Event refers to no
// event: all its methods are no-ops. A handle outlives its event safely —
// once the event has fired (or its cancellation has been collected), the
// handle goes stale and Cancel/Pending become no-ops, so callers may keep
// handles around without lifecycle bookkeeping.
type Event struct {
	e   *event
	gen uint64
}

// Cancel prevents the event's callback from running. Safe to call at any
// point, including after the event has fired; idempotent.
func (h Event) Cancel() {
	if h.e != nil && h.e.gen == h.gen {
		h.e.cancel = true
	}
}

// Pending reports whether the event is still queued and not cancelled.
func (h Event) Pending() bool { return h.e != nil && h.e.gen == h.gen && !h.e.cancel }

// Kernel is a discrete-event simulation engine. Create one with New,
// attach components and processes, then call Run or RunUntil.
//
// Scheduling is zero-allocation in steady state: event objects are
// recycled through a free list, future events live in an inlined 4-ary
// min-heap (no interface boxing, better cache locality than the binary
// container/heap), and events scheduled for the current instant bypass
// the heap entirely through a FIFO ring whose (time, seq) order merges
// exactly with the heap's.
type Kernel struct {
	now      Time
	lastAt   Time     // time of the last executed event (Now may run ahead to a RunUntil limit)
	queue    []*event // 4-ary min-heap on (at, seq)
	imm      []*event // power-of-two ring: events at the current instant
	immHead  int
	immN     int
	free     []*event
	seq      uint64
	seed     int64
	executed uint64
	rands    map[string]*rand.Rand

	// current process, non-nil while a process body is executing.
	cur *Proc
	// sentinel of the ring of started, not yet done processes (see link).
	procs Proc
}

// New returns a kernel whose clock reads zero and whose named random
// generators derive from seed.
func New(seed int64) *Kernel {
	k := &Kernel{seed: seed}
	k.procs.prev, k.procs.next = &k.procs, &k.procs
	return k
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have run so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// alloc takes an event from the free list (or the allocator) and stamps
// it with the next sequence number.
func (k *Kernel) alloc(t Time) *event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{}
	}
	e.at = t
	e.seq = k.seq
	k.seq++
	return e
}

// recycle returns a popped event to the free list, invalidating handles.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.call, e.arg = nil, nil
	e.proc = nil
	e.cancel = false
	k.free = append(k.free, e)
}

// enqueue routes a stamped event to the same-instant ring or the heap.
func (k *Kernel) enqueue(e *event) {
	if e.at == k.now {
		k.immPush(e)
	} else {
		k.heapPush(e)
	}
}

// At schedules fn to run at virtual time t, which must not precede Now.
// The name appears only in a scheduling panic. The returned handle can
// cancel the event.
func (k *Kernel) At(t Time, name string, fn func()) Event {
	return k.atArg(t, name, nil, fn)
}

// atArg schedules fn(arg) at virtual time t, or arg itself, a func(),
// when fn is nil. It is the one enqueue path for callbacks: At passes
// its func() as arg (a func value is pointer-shaped, so boxing it
// allocates nothing), the engine a handler bound once and a per-message
// argument.
func (k *Kernel) atArg(t Time, name string, fn func(any), arg any) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, t, k.now))
	}
	e := k.alloc(t)
	e.call, e.arg = fn, arg
	k.enqueue(e)
	return Event{e: e, gen: e.gen}
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Duration, name string, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d for %q", d, name))
	}
	return k.At(k.now.Add(d), name, fn)
}

// atProc schedules a dispatch of p at time t without allocating a
// closure — the wake/sleep fast path.
func (k *Kernel) atProc(t Time, p *Proc) {
	e := k.alloc(t)
	e.proc = p
	k.enqueue(e)
}

// Rand returns the deterministic random generator derived from the
// kernel seed and the given name. Each distinct name is an independent
// stream. The generator is memoized: repeated calls with the same name
// return the same *rand.Rand, so callers cannot accidentally fork two
// identical streams by looking the name up twice.
func (k *Kernel) Rand(name string) *rand.Rand {
	if r, ok := k.rands[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	r := rand.New(rand.NewSource(k.seed ^ int64(h.Sum64())))
	if k.rands == nil {
		k.rands = make(map[string]*rand.Rand)
	}
	k.rands[name] = r
	return r
}

// Run executes events until the queue is empty. It returns the final
// virtual time.
func (k *Kernel) Run() Time { return k.RunUntil(Time(1<<63 - 1)) }

// RunUntil executes events with timestamps ≤ limit, then advances the
// clock to min(limit, last event time) and returns it. Events scheduled
// beyond limit remain queued.
//
// The same-instant ring and the heap are merged on (time, seq): ring
// entries are pushed with the then-current clock and a globally
// increasing sequence number, so the ring is itself sorted and a single
// head-to-head comparison picks the next event — the exact order the
// old single-heap kernel produced.
func (k *Kernel) RunUntil(limit Time) Time {
	for {
		var e *event
		switch {
		case k.immN > 0 && len(k.queue) > 0:
			ie, he := k.imm[k.immHead], k.queue[0]
			if he.at < ie.at || (he.at == ie.at && he.seq < ie.seq) {
				if he.at <= limit {
					e = k.heapPop()
				}
			} else if ie.at <= limit {
				e = k.immPop()
			}
		case k.immN > 0:
			if ie := k.imm[k.immHead]; ie.at <= limit {
				e = k.immPop()
			}
		case len(k.queue) > 0:
			if k.queue[0].at <= limit {
				e = k.heapPop()
			}
		}
		if e == nil {
			break
		}
		if e.cancel {
			k.recycle(e)
			continue
		}
		if e.at < k.now {
			panic("sim: time went backwards")
		}
		k.now = e.at
		k.lastAt = e.at
		k.executed++
		call, arg, p := e.call, e.arg, e.proc
		k.recycle(e)
		switch {
		case p != nil:
			p.dispatch()
		case call != nil:
			call(arg)
		default:
			arg.(func())()
		}
	}
	if k.now < limit && limit < Time(1<<63-1) {
		k.now = limit
	}
	return k.now
}

// Pending reports the number of events currently queued (including
// cancelled events that have not yet been popped).
func (k *Kernel) Pending() int { return len(k.queue) + k.immN }

// PeekTime reports the timestamp of the earliest queued event, or false
// if the queue is empty. Cancelled events still count: they are popped
// (and skipped) in timestamp order like any other, so including them
// keeps the answer independent of when cancellations are collected.
func (k *Kernel) PeekTime() (Time, bool) {
	switch {
	case k.immN > 0 && len(k.queue) > 0:
		ie, he := k.imm[k.immHead], k.queue[0]
		if he.at < ie.at {
			return he.at, true
		}
		return ie.at, true
	case k.immN > 0:
		return k.imm[k.immHead].at, true
	case len(k.queue) > 0:
		return k.queue[0].at, true
	}
	return 0, false
}

// LastEventAt reports the virtual time of the last executed event. It
// differs from Now after RunUntil has advanced the clock to an event-free
// limit; the partitioned engine uses it to report a final time that does
// not depend on window geometry.
func (k *Kernel) LastEventAt() Time { return k.lastAt }

// --- same-instant FIFO ring ---

func (k *Kernel) immPush(e *event) {
	if k.immN == len(k.imm) {
		k.immGrow()
	}
	k.imm[(k.immHead+k.immN)&(len(k.imm)-1)] = e
	k.immN++
}

func (k *Kernel) immPop() *event {
	e := k.imm[k.immHead]
	k.imm[k.immHead] = nil
	k.immHead = (k.immHead + 1) & (len(k.imm) - 1)
	k.immN--
	return e
}

// immGrow doubles the ring, re-linearizing so head lands at 0.
func (k *Kernel) immGrow() {
	n := len(k.imm) * 2
	if n == 0 {
		n = 16
	}
	buf := make([]*event, n)
	for i := 0; i < k.immN; i++ {
		buf[i] = k.imm[(k.immHead+i)&(len(k.imm)-1)]
	}
	k.imm = buf
	k.immHead = 0
}

// --- 4-ary min-heap on (at, seq) ---

// eventLess orders events by time, then by schedule order. The seq
// tie-break is the determinism contract: same-instant events fire in the
// order they were scheduled, and DESIGN.md §8 argues why the 4-ary
// layout cannot perturb it.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (k *Kernel) heapPush(e *event) {
	q := append(k.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(e, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	k.queue = q
}

func (k *Kernel) heapPop() *event {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			min := c
			for j := c + 1; j < end; j++ {
				if eventLess(q[j], q[min]) {
					min = j
				}
			}
			if !eventLess(q[min], last) {
				break
			}
			q[i] = q[min]
			i = min
		}
		q[i] = last
	}
	k.queue = q
	return top
}
