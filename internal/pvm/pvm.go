// Package pvm models the PVM 3.3 communication substrate the Fx run-time
// used: a virtual machine of hosts each running a daemon (pvmd), tasks
// identified by TIDs, a pack/unpack message API that stores messages as
// fragment lists, and the direct task-to-task TCP routing (PvmRouteDirect)
// all of the paper's programs select.
//
// Two behaviours matter for the measured traffic and are modeled exactly:
//
//   - Copy-loop assembly: most Fx kernels assemble a message into one
//     contiguous buffer before packing, so PVM sends a single large
//     fragment which TCP cuts into maximal segments — the trimodal packet
//     sizes of figure 3.
//   - Fragment-list assembly: T2DFFT packs multiple pieces per message;
//     each fragment is handed to the socket separately, producing many
//     non-maximal packets — the smeared size distribution the paper
//     attributes to "PVM's handling of the message as a cluster of
//     fragments".
//
// The daemons exchange small periodic UDP keepalives with the master
// daemon, reproducing the background UDP the paper counts as part of each
// connection's traffic.
package pvm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fxnet/internal/netstack"
	"fxnet/internal/sim"
)

// ErrPeerDead is returned by the robust messaging API (SendErr, RecvErr)
// when the peer task's host has been marked dead (by heartbeat timeout or
// an explicit MarkHostDead).
var ErrPeerDead = errors.New("pvm: peer host is dead")

// Well-known ports.
const (
	DaemonPort     = 7000 // UDP, pvmd-to-pvmd control
	DirectPortBase = 5000 // TCP, task direct-route listener = base + TID
)

// headerBytes is the PVM message header: magic, source TID, tag, body
// length, fragment count — 20 bytes, all little-endian uint32.
const headerBytes = 20

const headerMagic = 0x50564d33 // "PVM3"

// Config tunes the virtual machine.
type Config struct {
	// KeepaliveInterval is the period of slave→master daemon UDP
	// keepalives (and master echoes). Zero disables daemon traffic.
	KeepaliveInterval sim.Duration
	// KeepalivePayload is the datagram body size in bytes.
	KeepalivePayload int
	// HeartbeatMisses is the failure-detection threshold K: the master
	// daemon marks a slave host dead after more than K keepalive intervals
	// pass without a keepalive from it, and slaves likewise mark the
	// master dead after K intervals without an echo. Zero disables
	// failure detection (the measured-era behaviour: pvmd waits forever).
	HeartbeatMisses int
	// ConnectRetries is how many times a failed direct-route connect is
	// retried (with exponential backoff) before the error is surfaced.
	// Zero surfaces the first failure immediately.
	ConnectRetries int
	// ConnectBackoff is the initial delay between connect retries; it
	// doubles per attempt, capped at 8× the base.
	ConnectBackoff sim.Duration
}

// DefaultConfig returns the daemon cadence used in the experiments: a
// sparse 30 s heartbeat, consistent with the paper's multi-second
// maximum interarrival gaps during AIRSHED's quiet preprocessing phases.
func DefaultConfig() Config {
	return Config{
		KeepaliveInterval: 30 * sim.Second,
		KeepalivePayload:  32,
	}
}

// FaultConfig is DefaultConfig for a run under a fault schedule: a 1 s
// keepalive (detection latency is misses × interval, and the sparse 30 s
// cadence would stretch every faulty run by minutes of virtual time), a
// detector that marks a host dead after three silent intervals, and three
// connect retries from a 250 ms backoff.
func FaultConfig() Config {
	return Config{
		KeepaliveInterval: sim.Second,
		KeepalivePayload:  32,
		HeartbeatMisses:   3,
		ConnectRetries:    3,
		ConnectBackoff:    250 * sim.Millisecond,
	}
}

// Machine is a PVM virtual machine spanning a set of hosts.
type Machine struct {
	k       *sim.Kernel
	hosts   []*netstack.Host
	cfg     Config
	tasks   []*Task
	live    int
	daemons []*daemon

	// Distributed-exit accounting for partitioned (multi-segment)
	// runs: each partition keeps its own count of the task exits
	// visible to it. An exit is visible to the exiting task's own
	// partition immediately and reaches every other partition as a
	// cross-partition message delayed by the trunk path — the exit is
	// physical news travelling the fabric, not shared state — so the
	// signal each partition observes is a pure function of virtual
	// time, independent of how the conservative engine cuts its
	// rounds, and identical in serial and parallel mode.
	exitSeen []int                                 // per partition: exits visible there
	partOf   func(hostIndex int) int               // host → partition
	exitSend func(srcPart, dstPart int, fn func()) // engine message transport

	dead       []bool // per host index, set by MarkHostDead
	onHostDead []func(hostIndex int)
}

// taskExited records one task-body return on the given host.
func (m *Machine) taskExited(hostIndex int) {
	if m.exitSend == nil {
		m.live--
		return
	}
	src := m.partOf(hostIndex)
	m.exitSeen[src]++
	for dst := range m.exitSeen {
		if dst == src {
			continue
		}
		dst := dst
		m.exitSend(src, dst, func() { m.exitSeen[dst]++ })
	}
}

// liveTasksAt reports the number of tasks host hostIndex's partition
// believes are still running: spawned minus the exits whose news has
// reached that partition. Single-kernel machines share one exact count.
func (m *Machine) liveTasksAt(hostIndex int) int {
	if m.exitSend == nil {
		return m.live
	}
	return m.live - m.exitSeen[m.partOf(hostIndex)]
}

// DistributeExits switches exit accounting to partitioned mode: partOf
// maps a host index to its partition, and send delivers an exit
// notification callback from one partition to another with the fabric's
// trunk latency (the topology runner routes it through the engine's
// cross-partition message path). Must be called before any task exits.
func (m *Machine) DistributeExits(nPart int, partOf func(hostIndex int) int, send func(srcPart, dstPart int, fn func())) {
	m.exitSeen = make([]int, nPart)
	m.partOf = partOf
	m.exitSend = send
}

// NewMachine assembles a virtual machine over hosts and starts a daemon
// on each. Host 0 is the master daemon.
func NewMachine(k *sim.Kernel, hosts []*netstack.Host, cfg Config) *Machine {
	m := &Machine{k: k, hosts: hosts, cfg: cfg, dead: make([]bool, len(hosts))}
	for i, h := range hosts {
		d := &daemon{m: m, host: h, index: i}
		m.daemons = append(m.daemons, d)
		d.start()
	}
	return m
}

// HostDead reports whether host i has been marked dead.
func (m *Machine) HostDead(i int) bool { return m.dead[i] }

// NotifyHostDead registers a callback invoked (in event context) each
// time a host is newly marked dead.
func (m *Machine) NotifyHostDead(fn func(hostIndex int)) {
	m.onHostDead = append(m.onHostDead, fn)
}

// MarkHostDead records host i as failed and propagates the news: its
// tasks are lost for good, every surviving task's connections to the dead
// host are reset (stopping their readers), every mailbox gate is
// broadcast so blocked receives re-check their source, and registered
// callbacks fire. In real PVM the master pvmd broadcasts HOSTDELETE
// notifications; the shared machine state models that control message.
// Idempotent.
func (m *Machine) MarkHostDead(i int) {
	if m.dead[i] {
		return
	}
	m.dead[i] = true
	addr := m.hosts[i].Addr()
	for _, t := range m.tasks {
		if t.hostIndex == i {
			t.lost = true
			continue
		}
		// Deterministic order: walk possible destinations by TID, not by
		// map iteration, so identical runs reset in identical order.
		for dst := range m.tasks {
			if c, ok := t.out[dst]; ok {
				if rh, _ := c.RemoteAddr(); rh == addr {
					c.Reset()
					delete(t.out, dst)
				}
			}
		}
		for _, c := range t.inConns {
			if rh, _ := c.RemoteAddr(); rh == addr {
				c.Reset()
			}
		}
		t.gate.Broadcast()
	}
	for _, fn := range m.onHostDead {
		fn(i)
	}
}

// KillHost models a machine crash: every task on host i is killed along
// with its accept process and its connection readers, and the host's
// transport stack crashes (resetting its connections and dropping its
// bindings). Peers learn of the death through heartbeat timeout when
// HeartbeatMisses is configured, or immediately via an explicit
// MarkHostDead.
func (m *Machine) KillHost(i int) {
	for _, t := range m.tasks {
		if t.hostIndex != i {
			continue
		}
		if !t.proc.Done() && !t.proc.Killed() {
			m.live-- // the killed body never reaches its own decrement
		}
		t.proc.Kill()
		if t.accept != nil {
			t.accept.Kill()
		}
		for _, r := range t.readers {
			r.kill()
		}
	}
	m.hosts[i].Crash()
}

// RestartHost brings a crashed host's stack and daemon back up. Tasks do
// not restart — a rebooted PVM host rejoins the virtual machine empty, and
// its re-registration tells the machine that the old incarnation's tasks
// are gone, if the failure detector has not said so already.
func (m *Machine) RestartHost(i int) {
	m.MarkHostDead(i)
	m.hosts[i].Restart()
	m.dead[i] = false
	if i == 0 {
		m.daemons[0].lastSeen = nil // stale pre-crash timestamps
	} else if master := m.daemons[0]; master.lastSeen != nil {
		master.lastSeen[m.hosts[i].Addr()] = m.k.Now()
	}
	m.daemons[i].start()
}

// Hosts returns the machine's hosts.
func (m *Machine) Hosts() []*netstack.Host { return m.hosts }

// Tasks returns the spawned tasks in TID order.
func (m *Machine) Tasks() []*Task { return m.tasks }

// daemon is a minimal pvmd: it answers keepalives, on slave hosts emits
// them periodically while any task is live, and — when HeartbeatMisses is
// configured — detects silent hosts and marks them dead.
type daemon struct {
	m     *Machine
	host  *netstack.Host
	index int

	// epoch invalidates the previous timer chains when the daemon
	// restarts after a crash.
	epoch int
	// lastSeen (master only) records the last keepalive time per slave
	// host address.
	lastSeen map[int]sim.Time
	// lastEcho (slaves only) records the last master echo.
	lastEcho sim.Time
	echoSeen bool
}

func (d *daemon) start() {
	d.epoch++
	epoch := d.epoch
	d.echoSeen = false
	// All daemon timing uses the host's own kernel: in a multi-segment
	// topology each host lives on its segment's partition kernel, and a
	// daemon must never read another partition's clock.
	dk := d.host.Kernel()
	d.host.BindUDP(DaemonPort, func(src int, srcPort uint16, payload []byte) {
		if d.index == 0 {
			// Master echoes each slave keepalive, as pvmd does for its
			// heartbeat protocol, and records when the slave last spoke.
			if src != d.host.Addr() {
				if d.lastSeen == nil {
					d.lastSeen = make(map[int]sim.Time)
				}
				d.lastSeen[src] = dk.Now()
				d.host.SendUDP(src, DaemonPort, DaemonPort, payload)
			}
			return
		}
		d.lastEcho = dk.Now()
		d.echoSeen = true
	})
	if d.m.cfg.KeepaliveInterval <= 0 {
		return
	}
	if d.index == 0 {
		d.startFailureDetector(epoch)
		return
	}
	started := dk.Now()
	window := sim.Duration(d.m.cfg.HeartbeatMisses) * d.m.cfg.KeepaliveInterval
	var tick func()
	tick = func() {
		if epoch != d.epoch || d.m.liveTasksAt(d.index) == 0 || d.host.Down() {
			return // superseded, quiescent, or crashed: stop generating events
		}
		if window > 0 && !d.m.HostDead(0) {
			last := started
			if d.echoSeen {
				last = d.lastEcho
			}
			if dk.Now().Sub(last) > window {
				d.m.MarkHostDead(0)
			}
		}
		d.host.SendUDP(d.m.hosts[0].Addr(), DaemonPort, DaemonPort,
			make([]byte, d.m.cfg.KeepalivePayload))
		dk.After(d.m.cfg.KeepaliveInterval, "pvmd.keepalive", tick)
	}
	dk.After(d.m.cfg.KeepaliveInterval, "pvmd.keepalive", tick)
}

// startFailureDetector runs the master-side liveness check: every
// keepalive interval it scans the slaves' lastSeen stamps and marks any
// host silent for more than HeartbeatMisses intervals dead. Disabled when
// HeartbeatMisses is zero, so the baseline event stream is untouched.
func (d *daemon) startFailureDetector(epoch int) {
	if d.m.cfg.HeartbeatMisses <= 0 {
		return
	}
	window := sim.Duration(d.m.cfg.HeartbeatMisses) * d.m.cfg.KeepaliveInterval
	dk := d.host.Kernel()
	started := dk.Now()
	var check func()
	check = func() {
		if epoch != d.epoch || d.m.liveTasksAt(d.index) == 0 || d.host.Down() {
			return
		}
		now := dk.Now()
		for i := 1; i < len(d.m.hosts); i++ {
			if d.m.dead[i] {
				continue
			}
			last, ok := d.lastSeen[d.m.hosts[i].Addr()]
			if !ok {
				last = started
			}
			if now.Sub(last) > window {
				d.m.MarkHostDead(i)
			}
		}
		dk.After(d.m.cfg.KeepaliveInterval, "pvmd.hbcheck", check)
	}
	dk.After(d.m.cfg.KeepaliveInterval, "pvmd.hbcheck", check)
}

// message is one queued inbound message.
type message struct {
	src, tag int
	body     []byte
}

// matches reports whether the message satisfies a receive's source and
// tag.
func (m *message) matches(src, tag int) bool {
	return m.src == src && m.tag == tag
}

// Task is a PVM task (one per processor in the Fx model).
type Task struct {
	m         *Machine
	tid       int
	host      *netstack.Host
	hostIndex int
	proc      *sim.Proc
	name      string

	out       map[int]*netstack.Conn
	inConns   []*netstack.Conn
	accept    *sim.Proc
	readers   []*reader // one per inConns entry
	mbox      []message
	gate      sim.Gate
	cancelErr error
	lost      bool                  // its host was marked dead; a restart does not revive it
	sends     carver                // small outgoing writes (see sendBuf)
	bodies    carver                // small bodies its readers receive (see bodyBuf)
	frameHead [headerBytes + 4]byte // what a large sendBuf appends to

	// Counters.
	MsgsSent, BytesSent int64
	MsgsRecv, BytesRecv int64
}

// Spawn creates a task on hosts[hostIndex] running body. The TID is the
// spawn order. Spawn also starts the task's direct-route listener.
func (m *Machine) Spawn(name string, hostIndex int, body func(t *Task)) *Task {
	t := &Task{
		m:         m,
		tid:       len(m.tasks),
		host:      m.hosts[hostIndex],
		hostIndex: hostIndex,
		name:      name,
		out:       make(map[int]*netstack.Conn),
	}
	m.tasks = append(m.tasks, t)
	m.live++

	hk := t.host.Kernel()
	l := t.host.Listen(uint16(DirectPortBase + t.tid))
	t.accept = hk.Go(fmt.Sprintf("pvm.accept:%s", name), func(p *sim.Proc) {
		for {
			c := l.Accept(p)
			r := &reader{t: t, c: c, need: headerBytes}
			t.inConns = append(t.inConns, c)
			t.readers = append(t.readers, r)
			c.OnReadable(readerName+name, r.run)
		}
	})
	t.proc = hk.Go("pvm.task:"+name, func(p *sim.Proc) {
		body(t)
		m.taskExited(t.hostIndex)
	})
	return t
}

// Cancel poisons the task's blocking operations with err: a pending or
// future SendErr/RecvErr returns it instead of blocking. Queued messages
// already delivered remain receivable first. Used by the run-time to
// unwind an entire team once one member has failed, so no survivor stays
// blocked on a rank that will never send. Idempotent (first cause wins).
func (t *Task) Cancel(err error) {
	if t.cancelErr != nil {
		return
	}
	t.cancelErr = err
	t.gate.Broadcast()
}

// Host returns the host the task runs on.
func (t *Task) Host() *netstack.Host { return t.host }

// Proc returns the task's simulation process; kernels use it for
// compute-phase sleeps.
func (t *Task) Proc() *sim.Proc { return t.proc }

// readerName prefixes a reader's kernel events with the name the reader
// process it replaced had, so event listings read as before.
const readerName = "pvm.reader:"

// reader parses messages off one inbound connection into the task's
// mailbox. It is not a process: run is the connection's OnReadable
// callback, a run-to-completion function of the per-connection parse
// state below, which consumes whatever is buffered and returns where a
// reader process would have parked. It stops for good when the connection
// fails or closes — a dead peer's partial message is discarded, never
// delivered truncated — or when its host is killed.
type reader struct {
	t    *Task
	c    *netstack.Conn
	done bool

	state    readState
	need     int // bytes the state is waiting for
	src, tag int
	bodyLen  int    // from the header of the message being assembled
	body     []byte // what has arrived of it
	frags    int    // fragments of it still to come
}

// readState is what the reader is waiting for next.
type readState uint8

const (
	readHeader  readState = iota // the headerBytes of a message header
	readFragLen                  // a 4-byte fragment length
	readFrag                     // that many bytes of fragment
)

// await moves the reader to state s, waiting for need bytes.
func (r *reader) await(s readState, need int) { r.state, r.need = s, need }

func (r *reader) run() {
	if r.done {
		return
	}
	for {
		b, err := r.c.TryRead(r.need)
		if err == netstack.ErrWouldBlock {
			return
		}
		if err != nil {
			r.done, r.body = true, nil
			return
		}
		switch r.state {
		case readHeader:
			if magic := binary.LittleEndian.Uint32(b[0:]); magic != headerMagic {
				panic(fmt.Sprintf("pvm: bad message magic %#x at task %s", magic, r.t.name))
			}
			r.src = int(int32(binary.LittleEndian.Uint32(b[4:])))
			r.tag = int(int32(binary.LittleEndian.Uint32(b[8:])))
			r.bodyLen = int(binary.LittleEndian.Uint32(b[12:]))
			r.frags = int(binary.LittleEndian.Uint32(b[16:]))
			r.body = r.bodyBuf()
			r.await(readFragLen, 4)
		case readFragLen:
			r.await(readFrag, int(binary.LittleEndian.Uint32(b)))
		case readFrag:
			r.body = append(r.body, b...) // b is only lent: copy it out
			r.frags--
			r.await(readFragLen, 4)
		}
		if r.frags == 0 {
			r.deliver()
		}
	}
}

// bodyBuf returns the empty body the message the header announced is
// assembled into. A small body is carved like a small send, from a chunk
// the task's readers share: they all run on its host's kernel, and a
// delivered body is the application's, so none is handed out twice. A
// large body in one fragment is nil: that fragment's append is then the
// one copy, into memory it allocates without zero-filling first.
func (r *reader) bodyBuf() []byte {
	switch {
	case r.bodyLen <= carveMaxBody:
		return r.t.bodies.carve(r.bodyLen)[:0]
	case r.frags == 1:
		return nil
	}
	return make([]byte, 0, r.bodyLen)
}

// deliver queues the assembled message and wakes the task's receives.
func (r *reader) deliver() {
	t, body := r.t, r.body
	if len(body) != r.bodyLen {
		panic(fmt.Sprintf("pvm: body %d != header %d", len(body), r.bodyLen))
	}
	t.MsgsRecv++
	t.BytesRecv += int64(len(body))
	t.mbox = append(t.mbox, message{src: r.src, tag: r.tag, body: body})
	t.gate.Broadcast()
	r.body = nil
	r.await(readHeader, headerBytes)
}

// kill stops a reader whose host crashed. A live reader costs one kernel
// event, as killing the process it replaced did; nothing its connection
// does afterwards schedules another.
func (r *reader) kill() {
	if r.done {
		return
	}
	r.done, r.body = true, nil
	r.c.OnReadable("", nil)
	k := r.t.host.Kernel()
	k.At(k.Now(), "wake:"+readerName+r.t.name, func() {})
}

// connToErr returns (establishing if needed) the outgoing direct-route
// connection to task dst. A connect that fails (ConnectTimeout or SYN
// retransmit cap in netstack) is retried up to ConnectRetries times with
// exponential backoff; a peer on a dead host yields ErrPeerDead.
func (t *Task) connToErr(dst int) (*netstack.Conn, error) {
	if c, ok := t.out[dst]; ok {
		if c.Err() == nil {
			return c, nil
		}
		delete(t.out, dst) // stale failed connection: redial
	}
	peer := t.m.tasks[dst]
	if peer.host == t.host {
		panic("pvm: intra-host messaging not modeled (paper runs one task per machine)")
	}
	if peer.lost {
		return nil, ErrPeerDead
	}
	backoff := t.m.cfg.ConnectBackoff
	if backoff <= 0 {
		backoff = sim.Second
	}
	maxBackoff := 8 * backoff
	for attempt := 0; ; attempt++ {
		c, err := t.host.ConnectErr(t.proc, peer.host.Addr(), uint16(DirectPortBase+dst))
		if err == nil {
			t.out[dst] = c
			return c, nil
		}
		if peer.lost {
			return nil, ErrPeerDead
		}
		if attempt >= t.m.cfg.ConnectRetries {
			return nil, err
		}
		t.proc.Sleep(backoff)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// putHeader writes the 20-byte message header into b.
func (t *Task) putHeader(b []byte, tag, bodyLen, nfrag int) {
	binary.LittleEndian.PutUint32(b[0:], headerMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(int32(t.tid)))
	binary.LittleEndian.PutUint32(b[8:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(b[12:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(b[16:], uint32(nfrag))
}

// Small sends and small received bodies are carved from chunks: the
// paper's SEQ kernel sends O(1)-byte messages, where one allocation per
// message is most of its cost. Chunks double from minChunk to maxChunk,
// so a task or connection that carries a dozen messages does not pay for
// 64 KB.
const (
	minChunk     = 2 << 10
	maxChunk     = 64 << 10
	carveMaxBody = 1 << 10
	sendCarveMax = carveMaxBody + headerBytes + 4 // a 1 KB body, framed
)

// carver hands out byte slices carved from its current chunk. Carved
// bytes are never handed out again: a chunk is collected once the last
// slice carved from it is unreachable.
type carver struct {
	tail     []byte // unused tail of the current chunk
	chunkLen int    // that chunk's full length
}

// carve returns n bytes, a non-nil slice even for n = 0.
func (c *carver) carve(n int) []byte {
	if c.tail == nil || len(c.tail) < n {
		c.chunkLen = min(max(2*c.chunkLen, minChunk), maxChunk)
		c.tail = make([]byte, c.chunkLen)
	}
	b := c.tail[:n:n]
	c.tail = c.tail[n:]
	return b
}

// sendBuf returns a framed message of body for an outgoing write, its
// 20-byte header left for the caller. The transport holds what it is
// given until the peer acknowledges it (and a frame on the wire holds it
// longer), so a small one is carved. A large one is body's one copy:
// append allocates it without zero-filling the bytes it copies, and
// frameHead is too short to be the result.
func (t *Task) sendBuf(body []byte) []byte {
	n := headerBytes + 4 + len(body)
	var buf []byte
	if n > sendCarveMax {
		buf = append(t.frameHead[:], body...)
	} else {
		buf = t.sends.carve(n)
		copy(buf[headerBytes+4:], body)
	}
	binary.LittleEndian.PutUint32(buf[headerBytes:], uint32(len(body)))
	return buf
}

// Send transmits body to task dst with the copy-loop discipline: header,
// length and body are assembled contiguously and written once, so PVM
// emits one large fragment. Blocks until the send window has accepted all
// bytes (PVM's send returns when the data is written to the socket).
func (t *Task) Send(dst, tag int, body []byte) {
	if err := t.SendErr(dst, tag, body); err != nil {
		panic(fmt.Sprintf("pvm: send %s -> task %d: %v", t.name, dst, err))
	}
}

// SendErr is Send returning an error instead of panicking: ErrPeerDead
// when the destination's host is (or is discovered to be) dead, or the
// transport failure otherwise.
func (t *Task) SendErr(dst, tag int, body []byte) error {
	if t.cancelErr != nil {
		return t.cancelErr
	}
	c, err := t.connToErr(dst)
	if err != nil {
		return err
	}
	buf := t.sendBuf(body)
	t.putHeader(buf, tag, len(body), 1)
	if err := c.WriteErr(t.proc, buf); err != nil {
		return t.sendFailure(dst, err)
	}
	t.MsgsSent++
	t.BytesSent += int64(len(body))
	return nil
}

// sendFailure maps a transport error to ErrPeerDead when the peer is
// known lost, else passes it through.
func (t *Task) sendFailure(dst int, err error) error {
	if t.m.tasks[dst].lost {
		return ErrPeerDead
	}
	return err
}

// SendFragsErr transmits a fragment-list message: the header goes out
// with the first fragment's length prefix, then every fragment is written
// to the socket separately — the T2DFFT behaviour. A transport failure or
// dead peer is returned, as by SendErr.
func (t *Task) SendFragsErr(dst, tag int, frags [][]byte) error {
	if len(frags) == 0 {
		return t.SendErr(dst, tag, nil)
	}
	if t.cancelErr != nil {
		return t.cancelErr
	}
	c, err := t.connToErr(dst)
	if err != nil {
		return err
	}
	total := 0
	for _, f := range frags {
		total += len(f)
	}
	hdr := t.sends.carve(headerBytes)
	t.putHeader(hdr, tag, total, len(frags))
	if err := c.WriteErr(t.proc, hdr); err != nil {
		return t.sendFailure(dst, err)
	}
	for _, f := range frags {
		lenb := t.sends.carve(4)
		binary.LittleEndian.PutUint32(lenb, uint32(len(f)))
		if err := c.WriteErr(t.proc, lenb); err != nil {
			return t.sendFailure(dst, err)
		}
		if err := c.WriteErr(t.proc, f); err != nil {
			return t.sendFailure(dst, err)
		}
	}
	t.MsgsSent++
	t.BytesSent += int64(total)
	return nil
}

// Recv blocks until a message matching src and tag is available,
// removes it from the mailbox, and returns its source, tag, and body. It
// panics if the awaited peer dies; RecvErr is the robust form.
func (t *Task) Recv(src, tag int) (gotSrc, gotTag int, body []byte) {
	gotSrc, gotTag, body, err := t.RecvErr(src, tag)
	if err != nil {
		panic(fmt.Sprintf("pvm: recv at %s from task %d: %v", t.name, src, err))
	}
	return gotSrc, gotTag, body
}

// RecvErr is Recv with failure awareness: it returns ErrPeerDead as soon
// as the awaited source is on a host marked dead with no matching
// message queued. It waits without a deadline but still wakes on peer
// death, because MarkHostDead broadcasts every mailbox gate.
func (t *Task) RecvErr(src, tag int) (gotSrc, gotTag int, body []byte, err error) {
	for {
		for i := range t.mbox {
			if t.mbox[i].matches(src, tag) {
				msg := t.mbox[i]
				// Shift down and zero the vacated slot: a consumed body
				// must not stay reachable from the slice's dead tail.
				last := len(t.mbox) - 1
				copy(t.mbox[i:], t.mbox[i+1:])
				t.mbox[last] = message{}
				t.mbox = t.mbox[:last]
				return msg.src, msg.tag, msg.body, nil
			}
		}
		if t.cancelErr != nil {
			return 0, 0, nil, t.cancelErr
		}
		if t.m.tasks[src].lost {
			return 0, 0, nil, ErrPeerDead
		}
		t.gate.Wait(t.proc)
	}
}

// Sleep advances the task's virtual time — the local-computation hook.
func (t *Task) Sleep(d sim.Duration) { t.proc.Sleep(d) }
