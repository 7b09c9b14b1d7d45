package sim

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Engine runs several kernels — one per topology partition — as a single
// conservative parallel discrete-event simulation. Progress is governed
// by a per-partition-pair lookahead matrix L, where L[i][j] is a lower
// bound on the virtual latency of any influence travelling from
// partition i to partition j. Each round the engine computes, for every
// partition i, an independent safe horizon
//
//	H[i] = min over j≠i of bound(j → i)
//
// where each peer j contributes the sooner of two hazards: its own
// pending work at N[j] arriving directly, and an echo — influence this
// partition emits after N[i] bouncing off j and coming back:
//
//	bound(j → i) = min( N[j] + L[j][i],  N[i] + L[i][j] + L[j][i] )
//
// For an idle peer (N[j] = ∞, nothing queued or staged) only the echo
// term remains: that is the demand-driven null horizon — the
// earliest-possible-send time the idle partition publishes instead of
// blocking its neighbors forever. Longer reflection chains (i → j → k
// → i) and hazards relayed through a third partition are dominated by
// these two terms because L is path-closed (see NewEngineMatrix). Every
// partition with N[i] < H[i] then advances to H[i]−1 independently —
// pairs separated by slow trunks run far ahead of a low-latency pair
// instead of crawling at the global minimum — and the round ends at a
// barrier where cross-partition messages are exchanged.
//
// Determinism: within a round each kernel sees only its own events (no
// shared mutable state), so its execution is a pure function of its
// pre-round queue. Messages bound for a destination are staged in a
// per-destination inbox kept sorted by (at, src, seq) — all three
// components derived from deterministic per-partition execution — and a
// message is injected only once its timestamp falls below the
// destination's horizon for the round. Because a horizon is a strict
// upper bound, messages with equal timestamps are always injected
// together, in (src, seq) order, no matter how the rounds are cut; the
// injection order seen by each kernel is therefore independent of the
// window schedule, and serial and parallel mode produce byte-identical
// traces.
//
// Correctness relies on the conservative contract: a message sent while
// partition src executes its round must be timestamped at least
// N[src] + L[src][dst]. The barrier panics if a message undercuts that
// pair horizon rather than silently reordering history.
type Engine struct {
	parts []*Kernel
	lat   [][]Duration // path-closed pairwise lookahead; lat[i][i] = 0
	state []partState  // what each partition writes during a round
	hooks []func(Time) // run at every barrier with the merge watermark

	inbox [][]xfer // per-destination staged messages, sorted (at, src, seq)
	dirty []bool   // inbox[d] received appends this barrier and needs sorting

	next    []Time // N[j]: earliest pending work (queue or staged inbox)
	horizon []Time // H[i] for the current round
	run     []bool // partition advances this round

	sorters []sort.Interface // one per destination inbox, allocated once
	ex      executor

	stats EngineStats
}

// cacheLine is the unit of padding that keeps state written by
// different runners on different cache lines.
const cacheLine = 64

// roundState is everything a runner writes while it advances one
// partition: the cross-partition sends of the round, the partition's
// send counter and a panic its events raised.
type roundState struct {
	outbox   []xfer
	seq      uint64
	panicked any
}

// partState pads a partition's roundState to a whole cache line, so two
// runners advancing different partitions never write the same line.
type partState struct {
	roundState
	_ [cacheLine - unsafe.Sizeof(roundState{})%cacheLine]byte
}

// EngineStats counts the engine's scheduling activity. Windows is the
// number of rounds; ActiveSum accumulates the number of partitions that
// advanced each round (ActiveSum/Windows is the mean concurrency the
// lookahead structure actually exposed — the number a serialization
// regression shows up in); NullPublishes counts demand-driven null
// horizons published by idle partitions; CrossMessages counts messages
// exchanged at barriers.
type EngineStats struct {
	Windows       uint64
	ActiveSum     uint64
	NullPublishes uint64
	CrossMessages uint64
}

// MeanActive is the mean number of partitions advancing per round.
func (s EngineStats) MeanActive() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.ActiveSum) / float64(s.Windows)
}

// inboxSorter sorts one destination's staged inbox by (at, src, seq). It
// holds the engine and the destination index, not the slice, because the
// barrier reassigns e.inbox[d]; once-allocated sorters keep the barrier
// allocation-free in steady state.
type inboxSorter struct {
	e *Engine
	d int
}

func (s inboxSorter) Len() int { return len(s.e.inbox[s.d]) }
func (s inboxSorter) Swap(a, b int) {
	m := s.e.inbox[s.d]
	m[a], m[b] = m[b], m[a]
}
func (s inboxSorter) Less(a, b int) bool {
	x, y := &s.e.inbox[s.d][a], &s.e.inbox[s.d][b]
	if x.at != y.at {
		return x.at < y.at
	}
	if x.src != y.src {
		return x.src < y.src
	}
	return x.seq < y.seq
}

// xfer is one cross-partition message: a callback and its argument, to
// be scheduled on the destination kernel at a future virtual time. It is
// copied through the outbox, the staging and the inbox slices, so its
// partition indices are int32: 64 B, one cache line.
type xfer struct {
	at   Time
	dst  int32
	src  int32
	seq  uint64
	name string
	call func(any)
	arg  any
}

// NewEngineMatrix builds an engine over the given partition kernels with
// a per-pair lookahead matrix: lat[i][j] bounds from below the virtual
// latency of any single cross-partition hop from i to j. Off-diagonal
// entries must be positive; the diagonal is ignored. The matrix is
// copied and closed under path composition (Floyd–Warshall), because the
// horizon math prices only direct j→i terms and relies on the triangle
// inequality L[j][i] ≤ L[j][k] + L[k][i] to keep multi-hop influence
// chains conservative.
func NewEngineMatrix(parts []*Kernel, lat [][]Duration) *Engine {
	n := len(parts)
	if n == 0 {
		panic("sim: engine needs at least one partition")
	}
	if len(lat) != n {
		panic("sim: lookahead matrix must be square over the partitions")
	}
	m := make([][]Duration, n)
	for i := range lat {
		if len(lat[i]) != n {
			panic("sim: lookahead matrix must be square over the partitions")
		}
		m[i] = append([]Duration(nil), lat[i]...)
		m[i][i] = 0
		for j, d := range m[i] {
			if i != j && d <= 0 {
				panic("sim: multi-partition engine needs positive pairwise lookahead")
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			ik := m[i][k]
			for j := 0; j < n; j++ {
				if via := ik + m[k][j]; via < m[i][j] {
					m[i][j] = via
				}
			}
		}
	}
	e := &Engine{
		parts:   parts,
		lat:     m,
		state:   make([]partState, n),
		inbox:   make([][]xfer, n),
		dirty:   make([]bool, n),
		next:    make([]Time, n),
		horizon: make([]Time, n),
		run:     make([]bool, n),
		sorters: make([]sort.Interface, n),
	}
	for i := 0; i < n; i++ {
		e.sorters[i] = inboxSorter{e, i}
	}
	return e
}

// Lookahead reports the (path-closed) pairwise bound from partition i to
// partition j.
func (e *Engine) Lookahead(i, j int) Duration { return e.lat[i][j] }

// Stats returns the engine's scheduling counters. Call after Run; the
// counters accumulate across Run calls on the same engine.
func (e *Engine) Stats() EngineStats { return e.stats }

// Send queues a cross-partition message from partition src to partition
// dst: fn will be scheduled on the destination kernel at virtual time
// at. Must be called from event context of the source partition. The
// timestamp must respect the pair lookahead — at least the source's
// round start plus lat[src][dst] — which any path with the latency
// bounds used to derive the matrix satisfies by construction.
func (e *Engine) Send(src, dst int, at Time, name string, fn func()) {
	e.SendArg(src, dst, at, name, nil, fn)
}

// SendArg is Send for a callback bound once, fn, and a per-message
// argument: fn(arg) runs on the destination kernel at virtual time at,
// or arg itself, a func(), when fn is nil (see Kernel.atArg). A message that carries its data in arg, rather
// than in a fresh closure, allocates nothing once the outbox has grown.
func (e *Engine) SendArg(src, dst int, at Time, name string, fn func(any), arg any) {
	s := &e.state[src]
	s.outbox = append(s.outbox, xfer{
		at: at, dst: int32(dst), src: int32(src), seq: s.seq, name: name, call: fn, arg: arg,
	})
	s.seq++
}

// OnBarrier registers fn to run at every barrier. Hooks run on the
// coordinating goroutine while all partitions are quiescent, and receive
// the merge watermark: no event executed after the barrier — on any
// partition — can precede it, so per-partition capture buffers may be
// drained up to (but excluding) the watermark in a single globally
// time-ordered pass. The final barrier passes the maximum Time.
func (e *Engine) OnBarrier(fn func(watermark Time)) {
	e.hooks = append(e.hooks, fn)
}

const maxTime = Time(1<<63 - 1)

// Run drives all partitions to completion and returns the virtual time
// of the last executed event across them. With parallel=false every
// round runs on the calling goroutine, one partition at a time in index
// order — the serial baseline that parallel mode must reproduce
// byte-for-byte. With parallel=true a round with two or more advancing
// partitions is shared between the calling goroutine and
// min(GOMAXPROCS, partitions) − 1 helpers that Run starts and stops (see
// executor); the rounds themselves are the same in both modes. A panic
// in a partition's event surfaces here in either mode: in parallel mode
// the round finishes first, and the panic of the lowest-indexed
// partition that raised one is re-raised.
func (e *Engine) Run(parallel bool) Time {
	n := len(e.parts)
	helpers := 0
	if parallel {
		helpers = min(runtime.GOMAXPROCS(0), n) - 1
	}
	if helpers > 0 {
		e.ex.start(e, helpers)
		defer e.ex.stop()
	}
	rounds := 0
	for {
		// N[j] = earliest pending work on partition j: its own queue or
		// the head of its staged inbox, whichever is sooner.
		any := false
		for j, k := range e.parts {
			t := maxTime
			if pt, ok := k.PeekTime(); ok {
				t = pt
			}
			if b := e.inbox[j]; len(b) > 0 && b[0].at < t {
				t = b[0].at
			}
			e.next[j] = t
			if t != maxTime {
				any = true
			}
		}
		if !any {
			// No partition has work anywhere. Outboxes are necessarily
			// empty: every Send is drained into an inbox at the barrier
			// ending the round that queued it.
			break
		}
		// Per-partition horizons. An idle partition never advances; a
		// busy one advances iff some horizon headroom exists (always
		// true for the globally earliest partition, so rounds progress).
		e.stats.Windows++
		rounds++
		active := 0
		for i := 0; i < n; i++ {
			if e.next[i] == maxTime {
				e.horizon[i] = 0
				e.run[i] = false
				if n > 1 {
					e.stats.NullPublishes++
				}
				continue
			}
			h := maxTime
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				// Echo bound: even a peer with no work of its own before
				// N[j] can react to influence this partition sends after
				// N[i] and reflect it back one round trip later. For an
				// idle peer (N[j] = ∞) this is the demand-driven null
				// horizon — the earliest-possible-send time it publishes
				// instead of blocking us forever.
				b := e.next[i].Add(e.lat[i][j] + e.lat[j][i])
				if e.next[j] != maxTime {
					if d := e.next[j].Add(e.lat[j][i]); d < b {
						b = d
					}
				}
				if b < h {
					h = b
				}
			}
			e.horizon[i] = h
			if e.next[i] < h {
				e.run[i] = true
				active++
			} else {
				e.run[i] = false
			}
		}
		e.stats.ActiveSum += uint64(active)
		// Inject each advancing partition's eligible staged messages —
		// the sorted prefix strictly below its horizon — then advance.
		for i := 0; i < n; i++ {
			if e.run[i] {
				e.injectStaged(i)
			}
		}
		if helpers > 0 && active > 1 {
			e.runShared()
		} else {
			for i, k := range e.parts {
				if e.run[i] {
					k.RunUntil(e.limitFor(i))
				}
			}
		}
		e.barrier()
	}
	if rounds == 0 {
		// The loop's final barrier already published a maxTime
		// watermark; only a run with no work at all skipped it.
		e.runHooks(maxTime)
	}
	var last Time
	for _, k := range e.parts {
		if at := k.LastEventAt(); at > last {
			last = at
		}
	}
	return last
}

// limitFor converts partition i's horizon (exclusive) into a RunUntil
// limit (inclusive).
func (e *Engine) limitFor(i int) Time {
	if e.horizon[i] == maxTime {
		return maxTime
	}
	return e.horizon[i] - 1
}

// injectStaged moves the prefix of partition i's staged inbox with
// timestamps strictly below its horizon into its kernel, in (at, src,
// seq) order. Equal timestamps can never straddle a horizon, so the
// per-destination injection order is independent of the round schedule.
func (e *Engine) injectStaged(i int) {
	buf := e.inbox[i]
	h := e.horizon[i]
	k := e.parts[i]
	m := 0
	for m < len(buf) && buf[m].at < h {
		x := &buf[m]
		k.atArg(x.at, x.name, x.call, x.arg)
		m++
	}
	if m == 0 {
		return
	}
	rest := copy(buf, buf[m:])
	for j := rest; j < len(buf); j++ {
		buf[j].call, buf[j].arg = nil, nil // do not retain callbacks through the staging buffer
	}
	e.inbox[i] = buf[:rest]
}

// spinFor bounds how long an idle helper polls for the next round before
// it parks. With the bound lifted, a helper's wait between rounds on
// fabric_topo64 (2DFFT, 64 hosts on four bridged segments; 2-core host)
// was under 50 µs 94 % of the time, under 100 µs 98.5 % and under 200 µs
// 99.4 %: the gaps are the barrier and the rounds one partition runs
// alone on the caller. A parked helper costs a goroutine wake-up of tens
// of microseconds, during which the caller runs the round's partitions
// by itself, so 200 µs keeps nearly every wait on the spin path (50 µs
// measured slower, 200 µs level with never parking) and past it — a long
// stretch of one-partition rounds, a long barrier hook, the end of the
// run — a helper parks and burns no CPU.
const spinFor = 200 * time.Microsecond

// executor shares the advancing partitions of one round between the
// goroutine calling Run and its helpers. The round's partitions are
// listed in order; every runner, the caller included, claims the next
// unclaimed entry from one atomic word until none is left, so runners
// change only who executes a partition's share of the round, never what
// the round contains. The claim word carries the round number beside the
// count left, so a runner still finishing round r can never claim an
// entry of round r+1.
type executor struct {
	order []int  // partitions advancing this round, claimed from the back
	round uint32 // number of the last published round; caller-only

	_       [cacheLine]byte
	claim   atomic.Uint64 // round<<32 | entries of order not yet claimed
	pending atomic.Int64  // entries of order not yet finished
	quit    atomic.Bool
	_       [cacheLine]byte

	helpers []sleeper // one per helper goroutine, reused across Runs
	wg      sync.WaitGroup
}

// sleeper is a helper waiting for work: it spins for spinFor, then parks
// until the caller rouses it.
type sleeper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// await returns once ready reports true. It polls with runtime.Gosched
// for spinFor, then parks. Whoever makes ready true must call rouse
// afterwards; the parked flag is set before ready is checked a last
// time, so either that check sees the work or rouse sees the flag. A
// rouse that wins the flag sends exactly one token, which the receive
// takes, so none is left over for a later wait. A rouse can be late —
// the caller rousing helpers for round r reaches one that has already
// worked on r and parked again — so a woken sleeper checks ready again
// and parks again if it is still false.
func (s *sleeper) await(ready func() bool) {
	for start := time.Now(); time.Since(start) < spinFor; runtime.Gosched() {
		if ready() {
			return
		}
	}
	for !ready() {
		s.parked.Store(true)
		if !ready() || !s.parked.CompareAndSwap(true, false) {
			<-s.wake
		}
	}
}

// rouse wakes s if it has parked.
func (s *sleeper) rouse() {
	if s.parked.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
	}
}

// start launches n helper goroutines for e.
func (x *executor) start(e *Engine, n int) {
	if len(x.helpers) != n {
		x.helpers = make([]sleeper, n)
		for i := range x.helpers {
			x.helpers[i].wake = make(chan struct{}, 1)
		}
	}
	x.quit.Store(false)
	x.wg.Add(n)
	for i := range x.helpers {
		go e.help(&x.helpers[i], x.round)
	}
}

// stop ends the helpers and returns once every one has exited. No round
// is in flight: Run calls it after runShared has returned or unwound.
func (x *executor) stop() {
	x.quit.Store(true)
	for i := range x.helpers {
		x.helpers[i].rouse()
	}
	x.wg.Wait()
}

// help is one helper goroutine: it waits for a round newer than the last
// one it saw and works on it, until stop.
func (e *Engine) help(s *sleeper, seen uint32) {
	x := &e.ex
	defer x.wg.Done()
	for {
		s.await(func() bool { return uint32(x.claim.Load()>>32) != seen || x.quit.Load() })
		if x.quit.Load() {
			return
		}
		seen = uint32(x.claim.Load() >> 32)
		e.work(seen)
	}
}

// runShared publishes the round's advancing partitions, works on them
// beside the helpers, and returns once all have finished, re-raising the
// panic of the lowest-indexed partition that panicked. Once its own
// claims run out the caller polls for the helpers' last partitions
// without a bound: they are running, so the wait ends with the round.
func (e *Engine) runShared() {
	x := &e.ex
	x.order = x.order[:0]
	for i, r := range e.run {
		if r {
			x.order = append(x.order, i)
		}
	}
	x.pending.Store(int64(len(x.order)))
	x.round++
	x.claim.Store(uint64(x.round)<<32 | uint64(len(x.order)))
	for i := range x.helpers {
		x.helpers[i].rouse()
	}
	e.work(x.round)
	for x.pending.Load() != 0 {
		runtime.Gosched()
	}
	for _, i := range x.order {
		if v := e.state[i].panicked; v != nil {
			panic(v)
		}
	}
}

// work claims round r's unclaimed partitions one at a time and advances
// each to its limit, until the round has none left.
func (e *Engine) work(r uint32) {
	x := &e.ex
	for {
		c := x.claim.Load()
		left := uint32(c)
		if uint32(c>>32) != r || left == 0 {
			return
		}
		if x.claim.CompareAndSwap(c, c-1) {
			e.advance(x.order[left-1])
			x.pending.Add(-1)
		}
	}
}

// advance runs partition i to its round limit and records what it
// panicked with, nil if nothing, for runShared to re-raise on the
// caller's goroutine.
func (e *Engine) advance(i int) {
	defer func() { e.state[i].panicked = recover() }()
	e.parts[i].RunUntil(e.limitFor(i))
}

// barrier drains every outbox into the destination inboxes, re-sorts the
// inboxes that grew, checks the conservative contract, and runs the
// hooks with the merge watermark. A message from src must be timestamped
// at least src's round start plus the pair bound; anything earlier could
// rewrite history some schedule already committed, so it panics rather
// than reorders.
func (e *Engine) barrier() {
	for src := range e.state {
		ob := e.state[src].outbox
		for j := range ob {
			x := &ob[j]
			if x.at < e.next[src].Add(e.lat[src][x.dst]) {
				panic("sim: lookahead violation: cross-partition message " + x.name + " undercuts the pair horizon")
			}
			e.inbox[x.dst] = append(e.inbox[x.dst], *x)
			e.dirty[x.dst] = true
			x.call, x.arg = nil, nil
			e.stats.CrossMessages++
		}
		e.state[src].outbox = ob[:0]
	}
	for d := range e.inbox {
		if e.dirty[d] {
			// Keys (at, src, seq) are unique — seq is strictly
			// increasing per source — so an unstable sort yields a
			// total deterministic order.
			if len(e.inbox[d]) > 1 {
				sort.Sort(e.sorters[d])
			}
			e.dirty[d] = false
		}
	}
	// Watermark: the earliest possible next event anywhere. Every event
	// already executed is committed; everything still to come — queued
	// or staged — is at or after this bound.
	w := maxTime
	for j, k := range e.parts {
		if pt, ok := k.PeekTime(); ok && pt < w {
			w = pt
		}
		if b := e.inbox[j]; len(b) > 0 && b[0].at < w {
			w = b[0].at
		}
	}
	e.runHooks(w)
}

func (e *Engine) runHooks(w Time) {
	for _, fn := range e.hooks {
		fn(w)
	}
}
