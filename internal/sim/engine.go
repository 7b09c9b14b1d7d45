package sim

import "sort"

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
	seq   []uint64     // per-source-partition send counter
	hooks []func(Time) // run at every barrier with the merge watermark

	outbox [][]xfer // per-source cross-partition sends this round
	inbox  [][]xfer // per-destination staged messages, sorted (at, src, seq)
	dirty  []bool   // inbox[d] received appends this barrier and needs sorting

	next    []Time // N[j]: earliest pending work (queue or staged inbox)
	horizon []Time // H[i] for the current round
	run     []bool // partition advances this round

	sorters []sort.Interface // one per destination inbox, allocated once
	cmds    []chan Time
	done    chan struct{}
	started bool

	stats EngineStats
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

// xfer is one cross-partition message: a callback to be scheduled on the
// destination kernel at a future virtual time.
type xfer struct {
	at   Time
	dst  int
	src  int
	seq  uint64
	name string
	fn   func()
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
		seq:     make([]uint64, n),
		outbox:  make([][]xfer, n),
		inbox:   make([][]xfer, n),
		dirty:   make([]bool, n),
		next:    make([]Time, n),
		horizon: make([]Time, n),
		run:     make([]bool, n),
		sorters: make([]sort.Interface, n),
		cmds:    make([]chan Time, n),
		done:    make(chan struct{}, n),
	}
	for i := 0; i < n; i++ {
		e.sorters[i] = inboxSorter{e, i}
		e.cmds[i] = make(chan Time, 1)
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
	e.outbox[src] = append(e.outbox[src], xfer{
		at: at, dst: dst, src: src, seq: e.seq[src], name: name, fn: fn,
	})
	e.seq[src]++
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
// of the last executed event across them. With parallel=false the same
// round/barrier schedule runs on the calling goroutine, one partition at
// a time in index order — the serial baseline that parallel mode must
// reproduce byte-for-byte.
func (e *Engine) Run(parallel bool) Time {
	if parallel && !e.started {
		e.started = true
		for i := range e.parts {
			go e.worker(i)
		}
		defer func() {
			for _, c := range e.cmds {
				close(c)
			}
			e.started = false
		}()
	}
	n := len(e.parts)
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
		if parallel {
			for i := range e.parts {
				if e.run[i] {
					e.cmds[i] <- e.limitFor(i)
				}
			}
			for left := active; left > 0; left-- {
				<-e.done
			}
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
		k.At(x.at, x.name, x.fn)
		m++
	}
	if m == 0 {
		return
	}
	rest := copy(buf, buf[m:])
	for j := rest; j < len(buf); j++ {
		buf[j].fn = nil // do not retain closures through the staging buffer
	}
	e.inbox[i] = buf[:rest]
}

// worker is one partition's goroutine in parallel mode: it advances its
// kernel to each commanded limit and signals completion. The channel
// send/receive pairs give the barrier the happens-before edges that make
// cross-partition frame hand-off race-free.
func (e *Engine) worker(i int) {
	k := e.parts[i]
	for limit := range e.cmds[i] {
		k.RunUntil(limit)
		e.done <- struct{}{}
	}
}

// barrier drains every outbox into the destination inboxes, re-sorts the
// inboxes that grew, checks the conservative contract, and runs the
// hooks with the merge watermark. A message from src must be timestamped
// at least src's round start plus the pair bound; anything earlier could
// rewrite history some schedule already committed, so it panics rather
// than reorders.
func (e *Engine) barrier() {
	for src := range e.outbox {
		ob := e.outbox[src]
		for j := range ob {
			x := &ob[j]
			if x.at < e.next[src].Add(e.lat[src][x.dst]) {
				panic("sim: lookahead violation: cross-partition message " + x.name + " undercuts the pair horizon")
			}
			e.inbox[x.dst] = append(e.inbox[x.dst], *x)
			e.dirty[x.dst] = true
			x.fn = nil
			e.stats.CrossMessages++
		}
		e.outbox[src] = ob[:0]
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
