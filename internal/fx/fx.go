// Package fx models the Fx parallelizing compiler's run-time system: SPMD
// programs whose P processes interleave local computation phases with
// compiled global communication phases over PVM direct-route connections.
//
// The five communication patterns of the paper's figure 1 — neighbor,
// all-to-all (shift schedule), partition, broadcast, and tree — are
// provided as collective operations. Compute phases advance virtual time
// through a calibrated cost model that also injects the occasional OS
// "deschedule" stall the paper observed merging 2DFFT's bursts.
package fx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"fxnet/internal/pvm"
	"fxnet/internal/sim"
)

// ErrTeamAborted poisons the surviving ranks of a team once one rank has
// failed: their pending sends and receives return it, so every survivor
// unwinds with its own RunError instead of blocking on a rank that will
// never speak again.
var ErrTeamAborted = errors.New("fx: team aborted")

// RunError reports one rank's failure: which program, which rank, which
// communication or compute phase it was in, and the underlying cause
// (typically pvm.ErrPeerDead or ErrTeamAborted).
type RunError struct {
	Program string
	Rank    int
	Phase   string
	Err     error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("fx: %s rank %d failed in phase %q: %v", e.Program, e.Rank, e.Phase, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// abortPanic unwinds a failed worker's goroutine from the point of
// failure back to the Launch wrapper, which records the RunError.
type abortPanic struct{ err *RunError }

// Pattern identifies one of the paper's global communication patterns.
type Pattern int

// The figure 1 patterns.
const (
	Neighbor Pattern = iota
	AllToAll
	Partition
	Broadcast
	Tree
)

func (p Pattern) String() string {
	switch p {
	case Neighbor:
		return "neighbor"
	case AllToAll:
		return "all-to-all"
	case Partition:
		return "partition"
	case Broadcast:
		return "broadcast"
	case Tree:
		return "tree"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Connections reports the number of simplex connections the pattern uses
// on P processors — the §7.1 comparison: neighbor uses at most 2P,
// all-to-all P(P−1), an equal two-set partition P²/4, broadcast P−1, and
// a tree P−1 up-edges plus P−1 release edges.
func (p Pattern) Connections(P int) int {
	if P < 2 {
		return 0
	}
	switch p {
	case Neighbor:
		return 2 * (P - 1) // chain: interior procs talk to both sides
	case AllToAll:
		return P * (P - 1)
	case Partition:
		return (P / 2) * (P - P/2)
	case Broadcast:
		return P - 1
	case Tree:
		return 2 * (P - 1)
	default:
		return 0
	}
}

// CostModel converts a kernel's abstract operation counts into virtual
// compute time. Rates are in operations per virtual second; the class
// names let each kernel calibrate independently (documented per kernel in
// EXPERIMENTS.md). DeschedProb injects, per compute phase, an OS
// descheduling stall with mean DeschedMean — the effect the paper blames
// for 2DFFT's occasionally merged communication bursts.
type CostModel struct {
	DefaultRate float64
	Rates       map[string]float64
	DeschedProb float64
	DeschedMean sim.Duration
	JitterFrac  float64
}

// DefaultCostModel approximates a 133 MHz Alpha 21064 running
// memory-bound dense-matrix code.
func DefaultCostModel() CostModel {
	return CostModel{
		DefaultRate: 2e6,
		DeschedProb: 0.01,
		DeschedMean: 150 * sim.Millisecond,
		JitterFrac:  0.01,
	}
}

// Rate returns the operations-per-second rate for a class.
func (c CostModel) Rate(class string) float64 {
	if r, ok := c.Rates[class]; ok && r > 0 {
		return r
	}
	if c.DefaultRate > 0 {
		return c.DefaultRate
	}
	return 2e6
}

// Worker is one SPMD process: rank r of P, bound to a PVM task.
type Worker struct {
	Rank, P int
	task    *pvm.Task
	team    *Team
	cost    CostModel
	rng     *rand.Rand
	hostIdx int

	// UseFragments selects the fragment-list send path (T2DFFT) instead
	// of the copy-loop path for this worker's Send calls.
	UseFragments bool
	// CoalesceFragments forces even explicit SendFrags calls through the
	// copy-loop path — the packing ablation's control arm.
	CoalesceFragments bool

	phase        string
	pendingStall sim.Duration

	// ComputeTime accumulates virtual time spent in compute phases.
	ComputeTime sim.Duration
	// Descheds counts injected OS stalls.
	Descheds int
}

// Team is a launched SPMD program instance.
type Team struct {
	Workers []*Worker
	Name    string
	baseTID int
	hosts   []int // rank → machine host index
	gen     int   // 0 for the original team, +1 per degrade re-form
	// done counts workers that returned successfully. Atomic because in
	// partitioned runs workers on different segment kernels increment it
	// concurrently; it is only read after the simulation completes.
	done    atomic.Int32
	aborted bool
	errs    []*RunError
	next    *Team
}

// Done reports whether every worker has returned successfully.
func (t *Team) Done() bool { return int(t.done.Load()) == len(t.Workers) }

// Failed reports whether any worker has aborted.
func (t *Team) Failed() bool { return t.aborted }

// Err returns the first rank failure, nil if none.
func (t *Team) Err() *RunError {
	if len(t.errs) == 0 {
		return nil
	}
	return t.errs[0]
}

// Finished reports whether every worker process has stopped running —
// by returning, aborting with a RunError, or being killed in a crash.
func (t *Team) Finished() bool {
	for _, w := range t.Workers {
		if w.task == nil || !w.task.Proc().Done() {
			return false
		}
	}
	return true
}

// Final returns the last team in the degrade chain (t itself if no
// re-form has happened).
func (t *Team) Final() *Team {
	cur := t
	for cur.next != nil {
		cur = cur.next
	}
	return cur
}

// Generation reports how many times the team has re-formed (0 = original).
func (t *Team) Generation() int { return t.gen }

// StallHost injects a compute stall of duration d into every worker of
// the team running on machine host hostIndex — the ComputeStall fault.
func (t *Team) StallHost(hostIndex int, d sim.Duration) {
	for _, w := range t.Workers {
		if w.hostIdx == hostIndex {
			w.InjectStall(d)
		}
	}
}

// fail records one rank's failure and, on the first one, poisons every
// teammate's task so the whole team unwinds instead of deadlocking.
func (t *Team) fail(re *RunError) {
	t.errs = append(t.errs, re)
	if t.aborted {
		return
	}
	t.aborted = true
	for _, w := range t.Workers {
		if w.task != nil {
			w.task.Cancel(ErrTeamAborted)
		}
	}
}

// Opts configures a team launch beyond the basic Launch parameters.
type Opts struct {
	P    int
	Cost CostModel
	Name string
	// Hosts maps rank → machine host index; nil means the identity
	// mapping 0..P−1 (the paper's one-task-per-machine layout).
	Hosts []int
	// Degrade re-forms the team on the surviving hosts when a host is
	// marked dead, instead of leaving the program aborted: the paper's
	// §7.3 QoS negotiation run in reverse.
	Degrade bool
	// Renegotiate picks the degraded team size given the number of
	// surviving hosts (e.g. qos.Network.Negotiate); nil uses every
	// survivor. Results outside [1, maxP] are clamped.
	Renegotiate func(maxP int) int
}

// Launch starts an SPMD program with P workers on machine m, worker r on
// host r. body is the compiled program each process executes. The team's
// workers share the cost model but draw independent jitter streams.
func Launch(m *pvm.Machine, P int, cost CostModel, name string, body func(w *Worker)) *Team {
	return LaunchOpts(m, Opts{P: P, Cost: cost, Name: name}, body)
}

// LaunchOpts is Launch with full control over host placement and
// degraded re-launch behaviour.
func LaunchOpts(m *pvm.Machine, opts Opts, body func(w *Worker)) *Team {
	team := spawnTeam(m, opts, body)
	if opts.Degrade {
		current := team
		m.NotifyHostDead(func(dead int) {
			if current.Done() {
				return // program already finished; nothing to re-form
			}
			uses := false
			for _, hi := range current.hosts {
				if hi == dead {
					uses = true
					break
				}
			}
			if !uses {
				return
			}
			var survivors []int
			for _, hi := range current.hosts {
				if !m.HostDead(hi) {
					survivors = append(survivors, hi)
				}
			}
			if len(survivors) == 0 {
				return // total loss: the chain ends aborted
			}
			newP := len(survivors)
			if opts.Renegotiate != nil {
				if p := opts.Renegotiate(newP); p >= 1 && p <= newP {
					newP = p
				}
			}
			nopts := opts
			nopts.P = newP
			nopts.Hosts = survivors[:newP]
			next := spawnTeam(m, nopts, body)
			next.gen = current.gen + 1
			current.next = next
			current = next
		})
	}
	return team
}

func spawnTeam(m *pvm.Machine, opts Opts, body func(w *Worker)) *Team {
	P, name := opts.P, opts.Name
	if P < 1 || P > len(m.Hosts()) {
		panic(fmt.Sprintf("fx: P=%d with %d hosts", P, len(m.Hosts())))
	}
	hosts := opts.Hosts
	if hosts == nil {
		hosts = make([]int, P)
		for r := range hosts {
			hosts[r] = r
		}
	}
	if len(hosts) != P {
		panic(fmt.Sprintf("fx: %d hosts for P=%d", len(hosts), P))
	}
	team := &Team{Name: name, baseTID: len(m.Tasks()), hosts: append([]int(nil), hosts...)}
	for r := 0; r < P; r++ {
		w := &Worker{Rank: r, P: P, team: team, cost: opts.Cost, hostIdx: hosts[r], phase: "startup"}
		team.Workers = append(team.Workers, w)
		rank := r
		t := m.Spawn(fmt.Sprintf("%s[%d]", name, r), hosts[r], func(task *pvm.Task) {
			defer func() {
				if r := recover(); r != nil {
					ap, ok := r.(abortPanic)
					if !ok {
						panic(r) // includes the kernel's kill signal
					}
					_ = ap // already recorded by abort
					return
				}
				team.done.Add(1)
			}()
			w.task = task
			w.rng = task.Host().Kernel().Rand(fmt.Sprintf("fx.%s.%d", name, rank))
			body(w)
		})
		w.task = t
	}
	return team
}

// abort records the worker's failure (cause err, current phase) on the
// team and unwinds its goroutine.
func (w *Worker) abort(err error) {
	re := &RunError{Program: w.team.Name, Rank: w.Rank, Phase: w.phase, Err: err}
	w.team.fail(re)
	panic(abortPanic{re})
}

// Phase names the program phase the worker is in, for failure reports.
// Collectives set it automatically; kernels may name compute phases.
func (w *Worker) Phase(name string) { w.phase = name }

// InjectStall adds an extra OS-deschedule stall of duration d to the
// worker's next compute phase — the ComputeStall fault's hook.
func (w *Worker) InjectStall(d sim.Duration) {
	if d > 0 {
		w.pendingStall += d
	}
}

// tid maps a rank in this team to its PVM TID.
func (w *Worker) tid(rank int) int { return w.team.baseTID + rank }

// Compute advances virtual time by ops operations of the given cost
// class, with calibrated rate, multiplicative jitter, and the occasional
// descheduling stall.
func (w *Worker) Compute(class string, ops float64) {
	if ops <= 0 {
		return
	}
	secs := ops / w.cost.Rate(class)
	if w.cost.JitterFrac > 0 {
		secs *= math.Max(0, 1+w.cost.JitterFrac*w.rng.NormFloat64())
	}
	d := sim.DurationOf(secs)
	if w.cost.DeschedProb > 0 && w.rng.Float64() < w.cost.DeschedProb {
		d += sim.DurationOf(w.cost.DeschedMean.Seconds() * w.rng.ExpFloat64())
		w.Descheds++
	}
	if w.pendingStall > 0 {
		d += w.pendingStall
		w.pendingStall = 0
		w.Descheds++
	}
	w.ComputeTime += d
	w.task.Sleep(d)
}

// ComputeWith is Compute with the host arithmetic the charge stands for:
// work runs on its own goroutine while the worker makes exactly the
// Compute(class, ops) call, so a team's ranks do their arithmetic on as
// many cores as the host has while virtual time is still ops alone. work
// is joined before ComputeWith returns, and also when a Kill or
// Kernel.Close unwinds the worker mid-charge. work must touch only state
// private to this rank, none of the simulator's, and must not panic.
func (w *Worker) ComputeWith(class string, ops float64, work func()) {
	done := make(chan struct{})
	go func() {
		work()
		close(done)
	}()
	defer func() { <-done }()
	w.Compute(class, ops)
}

// Send transmits body to rank dst using the worker's packing mode. A
// transport failure or dead peer aborts the worker with a RunError.
func (w *Worker) Send(dst, tag int, body []byte) {
	var err error
	if w.UseFragments {
		err = w.task.SendFragsErr(w.tid(dst), tag, [][]byte{body})
	} else {
		err = w.task.SendErr(w.tid(dst), tag, body)
	}
	if err != nil {
		w.abort(err)
	}
}

// SendFrags transmits a fragment-list message (multiple packs, no copy
// loop). Under CoalesceFragments the fragments are first copied into one
// contiguous buffer, as the copy-loop kernels do.
func (w *Worker) SendFrags(dst, tag int, frags [][]byte) {
	if w.CoalesceFragments {
		var total int
		for _, f := range frags {
			total += len(f)
		}
		buf := make([]byte, 0, total)
		for _, f := range frags {
			buf = append(buf, f...)
		}
		if err := w.task.SendErr(w.tid(dst), tag, buf); err != nil {
			w.abort(err)
		}
		return
	}
	if err := w.task.SendFragsErr(w.tid(dst), tag, frags); err != nil {
		w.abort(err)
	}
}

// Recv blocks until a message from rank src with the tag arrives. A dead
// peer or team abort unwinds the worker with a RunError.
func (w *Worker) Recv(src, tag int) []byte {
	_, _, body, err := w.task.RecvErr(w.tid(src), tag)
	if err != nil {
		w.abort(err)
	}
	return body
}

// NeighborExchange performs the neighbor pattern of figure 1: every
// interior rank exchanges with both sides; rank 0 and rank P−1 exchange
// with their single neighbor. Returns the data received from rank−1 and
// rank+1 (nil at the chain ends).
func (w *Worker) NeighborExchange(tag int, toPrev, toNext []byte) (fromPrev, fromNext []byte) {
	w.phase = "neighbor-exchange"
	if w.Rank > 0 {
		w.Send(w.Rank-1, tag, toPrev)
	}
	if w.Rank < w.P-1 {
		w.Send(w.Rank+1, tag, toNext)
	}
	if w.Rank > 0 {
		fromPrev = w.Recv(w.Rank-1, tag)
	}
	if w.Rank < w.P-1 {
		fromNext = w.Recv(w.Rank+1, tag)
	}
	return fromPrev, fromNext
}

// AllToAll performs the all-to-all pattern with the shift schedule Fx
// compiles: at step s each rank sends parts[(rank+s)%P] to rank+s and
// receives from rank−s. parts[rank] is returned in place as the local
// part. The result slice r is such that r[i] is the part contributed by
// rank i.
func (w *Worker) AllToAll(tag int, parts [][]byte) [][]byte {
	if len(parts) != w.P {
		panic(fmt.Sprintf("fx: AllToAll with %d parts for P=%d", len(parts), w.P))
	}
	w.phase = "all-to-all"
	out := make([][]byte, w.P)
	out[w.Rank] = parts[w.Rank]
	for s := 1; s < w.P; s++ {
		dst := (w.Rank + s) % w.P
		src := (w.Rank - s + w.P) % w.P
		w.Send(dst, tag+s, parts[dst])
		out[src] = w.Recv(src, tag+s)
	}
	return out
}

// Bcast performs the broadcast pattern: root sends data to every other
// rank (P−1 point-to-point messages, as Fx's sequential-I/O broadcast
// does); non-roots receive and return it.
func (w *Worker) Bcast(root, tag int, data []byte) []byte {
	w.phase = "broadcast"
	if w.Rank == root {
		for r := 0; r < w.P; r++ {
			if r != root {
				w.Send(r, tag, data)
			}
		}
		return data
	}
	return w.Recv(root, tag)
}

// Reduce performs the tree (up-sweep) pattern: at step i, ranks that are
// odd multiples of 2^i send their value to the even multiple below and
// drop out; combine merges an incoming value into the local one. The
// fully reduced value lands on rank 0, which returns it; other ranks
// return nil.
func (w *Worker) Reduce(tag int, data []byte, combine func(local, incoming []byte) []byte) []byte {
	w.phase = "reduce"
	local := data
	for stride := 1; stride < w.P; stride <<= 1 {
		if w.Rank&stride != 0 {
			w.Send(w.Rank-stride, tag, local)
			return nil
		}
		if w.Rank+stride < w.P {
			local = combine(local, w.Recv(w.Rank+stride, tag))
		}
	}
	return local
}

// BlockRange computes the block distribution of n items over P
// processors: rank r owns [lo, hi). Remainder items go to the first
// ranks, as Fx's BLOCK distribution does.
func BlockRange(n, P, rank int) (lo, hi int) {
	base := n / P
	rem := n % P
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

// BlockOwner returns the rank owning item i under BlockRange.
func BlockOwner(n, P, i int) int {
	for r := 0; r < P; r++ {
		lo, hi := BlockRange(n, P, r)
		if i >= lo && i < hi {
			return r
		}
	}
	panic("fx: BlockOwner out of range")
}
