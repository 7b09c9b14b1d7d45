// Package netstack models the per-host transport stack of the paper's
// OSF/1 workstations: IP encapsulation over Ethernet, UDP datagrams (used
// by the PVM daemons), and a TCP implementation with MSS segmentation, a
// fixed sliding window, cumulative and delayed acknowledgments, and the
// three-way handshake. What matters for the traffic study is segmentation
// — which produces the paper's trimodal packet sizes — and the ACK
// stream; retransmission (a timeout with exponential backoff, fast
// retransmit on three duplicate ACKs, go-back-N resend) recovers the
// frames injected loss and faults drop. PVM never closes a direct-route
// connection, so there is no FIN teardown.
package netstack

import (
	"cmp"
	"errors"
	"fmt"
	"sort"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// Connection failure modes surfaced to the socket API instead of retrying
// forever — the robustness contract the fault model relies on.
var (
	// ErrTimedOut is returned when a connection gives up after
	// MaxRetransmits consecutive retransmission timeouts (data or SYN),
	// or when ConnectTimeout elapses before the handshake completes.
	ErrTimedOut = errors.New("netstack: connection timed out")
	// ErrReset is returned on a connection aborted by Reset or by a host
	// crash.
	ErrReset = errors.New("netstack: connection reset")
	// ErrWouldBlock is returned by TryRead when the requested bytes have
	// not arrived yet on a healthy connection.
	ErrWouldBlock = errors.New("netstack: read would block")
)

// Header sizes in bytes.
const (
	IPHeaderBytes  = 20
	TCPHeaderBytes = 20
	UDPHeaderBytes = 8
	// MSS is the maximum TCP segment payload on Ethernet.
	MSS = ethernet.MaxNetBytes - IPHeaderBytes - TCPHeaderBytes // 1460
	// MaxUDPPayload keeps daemon datagrams within one frame.
	MaxUDPPayload = ethernet.MaxNetBytes - IPHeaderBytes - UDPHeaderBytes
)

// Config holds the tunable transport parameters.
type Config struct {
	// SendWindow is the TCP send window in bytes (the socket buffer the
	// sender may have un-acknowledged on the wire).
	SendWindow int
	// AckEvery is the delayed-ACK segment threshold: an ACK is emitted
	// immediately after this many unacknowledged data segments.
	AckEvery int
	// DelayedAckTimeout bounds how long a single segment can wait for its
	// acknowledgment.
	DelayedAckTimeout sim.Duration
	// RTO is the initial retransmission timeout; it backs off
	// exponentially up to MaxRTO on repeated losses of the same segment.
	// A MaxRTO of zero or less caps it at a day instead.
	RTO    sim.Duration
	MaxRTO sim.Duration
	// Nagle enables sender-side small-segment coalescing. PVM sets
	// TCP_NODELAY, so the measured configuration leaves this false; the
	// packing ablation turns it on to show how it would erase the
	// fragment signature.
	Nagle bool
	// MaxRetransmits bounds consecutive retransmission timeouts (data or
	// SYN) on one connection: when exceeded the connection fails with
	// ErrTimedOut instead of backing off forever. Zero keeps the
	// measured-era behaviour of retrying indefinitely.
	MaxRetransmits int
	// ConnectTimeout bounds the three-way handshake: Connect fails with
	// ErrTimedOut when it elapses. Zero waits forever.
	ConnectTimeout sim.Duration
}

// rtoCeiling caps the backed-off timeout when MaxRTO is unset: a day,
// unbounded for any run, yet 10⁵ timeouts of it still fit sim.Time.
const rtoCeiling = 24 * sim.Hour

// DefaultConfig mirrors mid-1990s BSD-derived stacks: 16 KB socket
// buffers, ack-every-other-segment, 200 ms delayed-ACK timer.
func DefaultConfig() Config {
	return Config{
		SendWindow:        16 * 1024,
		AckEvery:          2,
		DelayedAckTimeout: 200 * sim.Millisecond,
		RTO:               1 * sim.Second,
		MaxRTO:            8 * sim.Second,
	}
}

// UDPHandler receives a datagram delivered to a bound UDP port.
type UDPHandler func(srcHost int, srcPort uint16, payload []byte)

// Host is one machine's network stack bound to an Ethernet attachment —
// a shared-segment station or a switch port.
type Host struct {
	k    *sim.Kernel
	st   ethernet.Port
	name string
	cfg  Config

	udp       map[uint16]UDPHandler
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	nextPort  uint16
	down      bool

	// slab is the unused tail of the current frame slab (see newFrame),
	// slabLen that slab's full length.
	slab    []ethernet.Frame
	slabLen int
}

// A host's frame slabs double from minFrameSlab to frameSlab frames, so
// a long run amortises the allocator 256-fold and a run of a few dozen
// frames per host (a daemon's small jobs) does not pay for 256 each.
const (
	minFrameSlab = 16
	frameSlab    = 256
)

// newFrame carves a zeroed frame from the host's current slab, starting a
// new slab when it runs out. Slabs only amortise the allocator: a frame
// is never handed out twice, because the wire may still hold it — as a
// duplicate, a held reorder, a bridge flood in another partition — long
// after the stack is done with it. A slab is collected once the last of
// its frames is unreachable.
func (h *Host) newFrame() *ethernet.Frame {
	if len(h.slab) == 0 {
		h.slabLen = min(max(2*h.slabLen, minFrameSlab), frameSlab)
		h.slab = make([]ethernet.Frame, h.slabLen)
	}
	f := &h.slab[0]
	h.slab = h.slab[1:]
	return f
}

type connKey struct {
	remoteHost            int
	localPort, remotePort uint16
}

// NewHost attaches a stack to port st. The host's address is the port
// ID.
func NewHost(k *sim.Kernel, st ethernet.Port, name string, cfg Config) *Host {
	if cfg.SendWindow <= 0 {
		cfg = DefaultConfig()
	}
	cfg.MaxRTO = cmp.Or(max(cfg.MaxRTO, 0), rtoCeiling)
	h := &Host{
		k: k, st: st, name: name, cfg: cfg,
		udp:       make(map[uint16]UDPHandler),
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		nextPort:  1024,
	}
	st.OnReceive(h.receive)
	return h
}

// Addr reports the host's address (its station ID).
func (h *Host) Addr() int { return h.st.ID() }

// Kernel returns the simulation kernel.
func (h *Host) Kernel() *sim.Kernel { return h.k }

// Down reports whether the host stack is crashed.
func (h *Host) Down() bool { return h.down }

// Crash models a host failure: the adaptor goes silent (frames queued
// for the wire are discarded, one on the wire is cut short), every open
// connection is aborted with ErrReset (waking its blocked readers and
// writers), listeners and port bindings are discarded, and the stack stops
// sending and receiving until Restart.
func (h *Host) Crash() {
	h.down = true
	h.st.Silence()
	// Abort in a fixed key order: fail() wakes blocked procs, and the
	// wake sequence must not depend on map iteration for the simulation
	// to stay byte-deterministic.
	keys := make([]connKey, 0, len(h.conns))
	for key := range h.conns {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.remoteHost != b.remoteHost {
			return a.remoteHost < b.remoteHost
		}
		if a.localPort != b.localPort {
			return a.localPort < b.localPort
		}
		return a.remotePort < b.remotePort
	})
	for _, key := range keys {
		h.conns[key].fail(ErrReset)
		delete(h.conns, key)
	}
	for port := range h.listeners {
		delete(h.listeners, port)
	}
	for port := range h.udp {
		delete(h.udp, port)
	}
}

// Restart brings a crashed stack back up with no connections and no
// bindings — the state a rebooted machine presents.
func (h *Host) Restart() { h.down = false }

func (h *Host) ephemeralPort() uint16 {
	p := h.nextPort
	h.nextPort++
	if h.nextPort == 0 {
		h.nextPort = 1024
	}
	return p
}

// BindUDP registers a datagram handler on a port, replacing any previous
// binding.
func (h *Host) BindUDP(port uint16, fn UDPHandler) { h.udp[port] = fn }

// SendUDP transmits one datagram. Oversize payloads panic: the daemons
// this models never fragment.
func (h *Host) SendUDP(dstHost int, srcPort, dstPort uint16, payload []byte) {
	if len(payload) > MaxUDPPayload {
		panic(fmt.Sprintf("netstack: UDP payload %d exceeds %d", len(payload), MaxUDPPayload))
	}
	if h.down {
		return // a crashed host sends nothing
	}
	f := h.newFrame()
	f.Dst = dstHost
	f.Proto = ethernet.ProtoUDP
	f.SrcPort, f.DstPort = srcPort, dstPort
	f.Flags = ethernet.FlagData
	f.NetLen = IPHeaderBytes + UDPHeaderBytes + len(payload)
	f.Payload = payload
	h.st.Send(f)
}

// receive dispatches an inbound frame to UDP or TCP handling.
func (h *Host) receive(f *ethernet.Frame) {
	if h.down {
		return // a crashed host hears nothing
	}
	switch f.Proto {
	case ethernet.ProtoUDP:
		if fn, ok := h.udp[f.DstPort]; ok {
			fn(f.Src, f.SrcPort, f.Payload)
		}
	case ethernet.ProtoTCP:
		h.receiveTCP(f)
	}
}

func (h *Host) receiveTCP(f *ethernet.Frame) {
	key := connKey{remoteHost: f.Src, localPort: f.DstPort, remotePort: f.SrcPort}
	if c, ok := h.conns[key]; ok {
		c.handle(f)
		return
	}
	if f.Flags&ethernet.FlagSyn != 0 {
		if l, ok := h.listeners[f.DstPort]; ok {
			l.handleSyn(f)
		}
	}
}

// Listener accepts inbound TCP connections on a port.
type Listener struct {
	h       *Host
	port    uint16
	backlog sim.Chan[*Conn]
}

// Listen binds a TCP listener to a port. Binding a port twice panics.
func (h *Host) Listen(port uint16) *Listener {
	if _, dup := h.listeners[port]; dup {
		panic(fmt.Sprintf("netstack: port %d already listening on %s", port, h.name))
	}
	l := &Listener{h: h, port: port}
	h.listeners[port] = l
	return l
}

// Accept blocks until a connection completes its handshake.
func (l *Listener) Accept(p *sim.Proc) *Conn {
	return l.backlog.Get(p)
}

func (l *Listener) handleSyn(f *ethernet.Frame) {
	h := l.h
	key := connKey{remoteHost: f.Src, localPort: l.port, remotePort: f.SrcPort}
	if _, dup := h.conns[key]; dup {
		return // duplicate SYN
	}
	c := newConn(h, f.Src, l.port, f.SrcPort)
	c.state = stateSynRcvd
	h.conns[key] = c
	// SYN-ACK.
	c.sendControl(ethernet.FlagSyn|ethernet.FlagAck, 0, 1)
	// The connection is usable once the final ACK of the handshake (or
	// first data) arrives; deliver it to Accept then.
	c.onEstablished = func() { l.backlog.Put(c) }
}

// Conn states.
type connState int

const (
	stateSynSent connState = iota
	stateSynRcvd
	stateEstablished
	stateClosed
)

// Conn is one TCP connection endpoint.
type Conn struct {
	h                     *Host
	remoteHost            int
	localPort, remotePort uint16
	state                 connState
	onEstablished         func()
	established           sim.Gate

	// Send side. sndQ and unacked are head-indexed queues: popping
	// advances a cursor instead of re-slicing, and the slice rewinds to
	// its start when drained, so a long-lived connection reuses one
	// backing array. Retired sendSeg structs go to segFree for reuse.
	sndNext   int64 // next byte sequence to assign
	sndQueued int64 // bytes handed to the station
	sndUna    int64 // lowest unacknowledged byte
	sndQ      []*sendSeg
	sndQHead  int
	buffered  int // bytes in sndQ (the socket send buffer)
	writers   sim.Gate
	segFree   []*sendSeg

	// Reliability: segments on the wire but unacknowledged, oldest
	// first, plus the retransmission timer state. The RTO and delayed-ACK
	// timers are lazy: re-arming only moves the logical deadline
	// (rtoDeadline / delAckAt; zero = disarmed), and the one physical
	// kernel event re-schedules itself when it fires early. Acknowledging
	// a segment therefore never pushes a fresh heap event, where the
	// eager version scheduled (and lazily cancelled) one per ACK.
	unacked     []*sendSeg
	unaHead     int
	rtoTimer    sim.Event
	rtoDeadline sim.Time
	rtoBackoff  int
	dupAcks     int
	fastAt      int64 // sndUna at the last fast retransmit (one per window)
	synTimer    sim.Event

	// Timer callbacks, bound once at construction: re-arming a timer
	// must not allocate a fresh method value per segment.
	onRTOFn    func()
	onDelAckFn func()
	synRetryFn func()

	// Receive side. rcvBuf[rcvOff:] holds the bytes not yet read: reading
	// advances the cursor instead of re-slicing, so the backing array keeps
	// its capacity and a drained buffer rewinds to its start.
	rcvNext     int64 // next expected byte
	rcvBuf      []byte
	rcvOff      int
	readers     sim.Gate
	onReadable  func() // event-context reader (OnReadable), nil if none
	wakeName    string // its wake event's name
	readArmed   bool   // TryRead came up short since onReadable last ran
	unackedSegs int
	delAck      sim.Event
	delAckAt    sim.Time

	// err records why the connection failed (ErrTimedOut, ErrReset);
	// nil while healthy.
	err        error
	synRetries int

	// Counters for tests and diagnostics.
	SegsIn, Retransmits int64
}

type sendSeg struct {
	data []byte
	seq  int64
}

// newSeg takes a segment from the connection's free list (or allocates).
func (c *Conn) newSeg() *sendSeg {
	if n := len(c.segFree); n > 0 {
		s := c.segFree[n-1]
		c.segFree[n-1] = nil
		c.segFree = c.segFree[:n-1]
		return s
	}
	return &sendSeg{}
}

// freeSeg retires a segment for reuse. The data slice is released (frames
// already on the wire hold their own copy of the slice header).
func (c *Conn) freeSeg(s *sendSeg) {
	s.data = nil
	c.segFree = append(c.segFree, s)
}

// qLen reports queued-but-unsent segments; inFlight reports sent-but-
// unacknowledged ones.
func (c *Conn) qLen() int     { return len(c.sndQ) - c.sndQHead }
func (c *Conn) inFlight() int { return len(c.unacked) - c.unaHead }

// popSndQ removes the head of the send queue, rewinding the backing
// array once drained.
func (c *Conn) popSndQ() *sendSeg {
	s := c.sndQ[c.sndQHead]
	c.sndQ[c.sndQHead] = nil
	c.sndQHead++
	if c.sndQHead == len(c.sndQ) {
		c.sndQ = c.sndQ[:0]
		c.sndQHead = 0
	}
	return s
}

func newConn(h *Host, remote int, localPort, remotePort uint16) *Conn {
	c := &Conn{h: h, remoteHost: remote, localPort: localPort, remotePort: remotePort}
	c.onRTOFn = c.onRTO
	c.onDelAckFn = c.onDelAck
	c.synRetryFn = c.synRetry
	return c
}

// Connect opens a TCP connection to dstHost:dstPort, blocking p until the
// three-way handshake completes. It panics on failure; use ConnectErr for
// the error-returning form a robust runtime needs.
func (h *Host) Connect(p *sim.Proc, dstHost int, dstPort uint16) *Conn {
	c, err := h.ConnectErr(p, dstHost, dstPort)
	if err != nil {
		panic(fmt.Sprintf("netstack: connect %s -> host %d:%d: %v", h.name, dstHost, dstPort, err))
	}
	return c
}

// ConnectErr opens a TCP connection to dstHost:dstPort, blocking p until
// the three-way handshake completes or fails. With cfg.ConnectTimeout (or
// cfg.MaxRetransmits on the SYN) configured, an unreachable peer yields
// ErrTimedOut instead of blocking the simulation forever.
func (h *Host) ConnectErr(p *sim.Proc, dstHost int, dstPort uint16) (*Conn, error) {
	if dstHost == h.Addr() {
		panic("netstack: TCP loopback not modeled; use host-local IPC")
	}
	c := newConn(h, dstHost, h.ephemeralPort(), dstPort)
	c.state = stateSynSent
	key := connKey{dstHost, c.localPort, c.remotePort}
	h.conns[key] = c
	c.sendSyn()
	var deadline sim.Event
	if h.cfg.ConnectTimeout > 0 {
		deadline = h.k.After(h.cfg.ConnectTimeout, "tcp.conntimeout", func() {
			if c.state != stateEstablished {
				c.fail(ErrTimedOut)
			}
		})
	}
	for c.state != stateEstablished {
		if c.err != nil {
			delete(h.conns, key)
			return nil, c.err
		}
		c.established.Wait(p)
	}
	deadline.Cancel()
	return c, nil
}

// sendSyn emits the SYN and arms its retransmission timer, so a lost SYN
// or SYN-ACK cannot deadlock connection setup. With MaxRetransmits
// configured, a persistently unanswered SYN fails the connection.
func (c *Conn) sendSyn() {
	c.sendControl(ethernet.FlagSyn, 0, 0)
	c.synTimer = c.h.k.After(c.h.cfg.RTO, "tcp.synrto", c.synRetryFn)
}

func (c *Conn) synRetry() {
	if c.state != stateSynSent {
		return
	}
	c.synRetries++
	if max := c.h.cfg.MaxRetransmits; max > 0 && c.synRetries > max {
		c.fail(ErrTimedOut)
		return
	}
	c.Retransmits++
	c.sendSyn()
}

// Err reports why the connection failed, or nil while it is healthy.
func (c *Conn) Err() error { return c.err }

// Reset aborts the connection immediately without emitting anything on
// the wire: pending data is discarded, timers are cancelled, and every
// blocked reader, writer, and connector is woken with the given cause.
func (c *Conn) Reset() { c.fail(ErrReset) }

// fail marks the connection dead with cause err (first cause wins),
// cancels all timers, discards queued data, and wakes every waiter so no
// process stays blocked on a dead connection.
func (c *Conn) fail(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.state = stateClosed
	c.rtoTimer.Cancel()
	c.synTimer.Cancel()
	c.delAck.Cancel()
	c.rtoTimer, c.synTimer, c.delAck = sim.Event{}, sim.Event{}, sim.Event{}
	c.rtoDeadline, c.delAckAt = 0, 0
	c.unacked, c.unaHead = nil, 0
	c.sndQ, c.sndQHead = nil, 0
	c.segFree = nil
	c.buffered = 0
	c.established.Broadcast()
	c.readable()
	c.writers.Broadcast()
}

// RemoteAddr reports the peer host address and port.
func (c *Conn) RemoteAddr() (int, uint16) { return c.remoteHost, c.remotePort }

// segment carves a frame addressed to the peer with an empty TCP segment.
func (c *Conn) segment(flags uint8, seq, ack int64) *ethernet.Frame {
	f := c.h.newFrame()
	f.Dst = c.remoteHost
	f.Proto = ethernet.ProtoTCP
	f.SrcPort, f.DstPort = c.localPort, c.remotePort
	f.Flags = flags
	f.NetLen = IPHeaderBytes + TCPHeaderBytes
	f.TCP = ethernet.TCPHeader{Seq: seq, Ack: ack}
	return f
}

// sendControl emits a zero-data control segment (SYN/ACK variants).
func (c *Conn) sendControl(flags uint8, seq, ack int64) {
	c.h.st.Send(c.segment(flags, seq, ack))
}

// Write queues data on the connection as one application-layer fragment:
// it is cut into MSS-sized segments, and the final short segment is never
// coalesced with a later Write unless Nagle is enabled (each PVM fragment
// is a separate socket write, which is what gives T2DFFT its distinctive
// packet sizes). Write blocks p while the socket send buffer (buffered +
// in flight ≥ SendWindow) is full, returning once every byte is buffered
// — the semantics of a blocking socket write.
func (c *Conn) Write(p *sim.Proc, data []byte) {
	if err := c.WriteErr(p, data); err != nil {
		panic(fmt.Sprintf("netstack: Write on failed connection: %v", err))
	}
}

// WriteErr is Write returning an error instead of panicking when the
// connection has failed (ErrTimedOut, ErrReset) — possibly mid-write, in
// which case a prefix of data may already be on the wire.
func (c *Conn) WriteErr(p *sim.Proc, data []byte) error {
	if c.err != nil {
		return c.err
	}
	for off := 0; off < len(data); off += MSS {
		end := off + MSS
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		for c.buffered+int(c.sndQueued-c.sndUna)+len(chunk) > c.h.cfg.SendWindow {
			if c.err != nil {
				return c.err
			}
			c.writers.Wait(p)
		}
		if c.err != nil {
			return c.err
		}
		seg := c.newSeg()
		seg.data = chunk
		seg.seq = c.sndNext
		c.sndNext += int64(len(seg.data))
		c.buffered += len(seg.data)
		c.sndQ = append(c.sndQ, seg)
		c.pump()
	}
	return nil
}

// pump admits queued segments while the send window has room, applying
// Nagle coalescing when configured.
func (c *Conn) pump() {
	for c.qLen() > 0 {
		seg := c.sndQ[c.sndQHead]
		if c.h.cfg.Nagle && len(seg.data) < MSS {
			seg = c.nagleCoalesce()
			if seg == nil {
				return // hold the small segment until outstanding data is acked
			}
			c.transmit(seg)
			continue
		}
		if c.sndQueued+int64(len(seg.data))-c.sndUna > int64(c.h.cfg.SendWindow) {
			return
		}
		c.popSndQ()
		c.transmit(seg)
	}
}

// transmit admits one segment: accounting, wire, and retransmit queue.
func (c *Conn) transmit(seg *sendSeg) {
	c.sndQueued += int64(len(seg.data))
	c.buffered -= len(seg.data)
	c.unacked = append(c.unacked, seg)
	c.sendData(seg)
	c.armRTO(false)
}

// nagleCoalesce merges consecutive queued small segments into one up to
// MSS. It returns nil when the (still sub-MSS) merged segment must wait
// for outstanding data to drain, per Nagle's rule.
func (c *Conn) nagleCoalesce() *sendSeg {
	q := c.sndQ[c.sndQHead:]
	total := 0
	n := 0
	for n < len(q) && total+len(q[n].data) <= MSS {
		total += len(q[n].data)
		n++
	}
	if n == 0 {
		n, total = 1, len(q[0].data) // single oversize-window case
	}
	if total < MSS && c.inFlight() > 0 {
		return nil
	}
	if c.sndQueued+int64(total)-c.sndUna > int64(c.h.cfg.SendWindow) {
		return nil
	}
	// Byte-granular fill: top up from the next segment so coalesced
	// segments are exactly MSS when the buffer has the bytes.
	take := 0
	if total < MSS && n < len(q) {
		take = MSS - total
		if take > len(q[n].data) {
			take = len(q[n].data)
		}
		total += take
	}
	if n == 1 && take == 0 {
		return c.popSndQ()
	}
	merged := c.newSeg()
	merged.seq = q[0].seq
	merged.data = make([]byte, 0, total)
	for i := 0; i < n; i++ {
		merged.data = append(merged.data, q[i].data...)
	}
	if take > 0 {
		next := q[n]
		merged.data = append(merged.data, next.data[:take]...)
		next.data = next.data[take:]
		next.seq += int64(take)
	}
	for i := 0; i < n; i++ {
		c.freeSeg(c.popSndQ())
	}
	return merged
}

// sendData puts one data segment on the wire.
func (c *Conn) sendData(seg *sendSeg) {
	f := c.segment(ethernet.FlagData, seg.seq, 0)
	f.NetLen += len(seg.data)
	f.Payload = seg.data
	c.h.st.Send(f)
}

// armRTO (re)arms the retransmission timer by moving its logical
// deadline; the physical kernel event is only scheduled when none is
// outstanding. With reset, the exponential backoff returns to the base
// timeout (called on forward progress).
func (c *Conn) armRTO(reset bool) {
	if reset {
		c.rtoBackoff = 0
	}
	if c.inFlight() == 0 {
		// Fully acknowledged: disarm physically too, so an idle
		// connection leaves nothing in the event queue. This happens once
		// per write burst, not once per ACK, so the cancel churn the lazy
		// deadline avoids does not come back.
		c.rtoDeadline = 0
		c.rtoTimer.Cancel()
		c.rtoTimer = sim.Event{}
		return
	}
	// Clamp before shifting: with unbounded retries the backoff grows
	// without limit, and RTO << 34 already wraps negative.
	rto, limit := c.h.cfg.RTO, c.h.cfg.MaxRTO
	if rto > limit>>c.rtoBackoff {
		rto = limit
	} else {
		rto <<= c.rtoBackoff
	}
	c.rtoDeadline = c.h.k.Now().Add(rto)
	if !c.rtoTimer.Pending() {
		c.rtoTimer = c.h.k.At(c.rtoDeadline, "tcp.rto", c.onRTOFn)
	}
}

// onRTO fires the physical timer. A deadline that moved forward since the
// event was scheduled re-arms instead of timing out; a genuine expiry goes
// back N — the receiver keeps no out-of-order buffer, so every
// unacknowledged segment is resent in order, then the timer backs off.
// With MaxRetransmits configured, a segment that keeps timing out fails
// the connection with ErrTimedOut instead of backing off forever.
func (c *Conn) onRTO() {
	c.rtoTimer = sim.Event{}
	if c.inFlight() == 0 || c.rtoDeadline == 0 {
		return
	}
	if now := c.h.k.Now(); now < c.rtoDeadline {
		c.rtoTimer = c.h.k.At(c.rtoDeadline, "tcp.rto", c.onRTOFn)
		return
	}
	c.rtoBackoff++
	if max := c.h.cfg.MaxRetransmits; max > 0 && c.rtoBackoff > max {
		c.fail(ErrTimedOut)
		return
	}
	c.goBackN()
}

// fastRetransmit triggers the same go-back-N resend after triple
// duplicate ACKs, without growing the backoff.
func (c *Conn) fastRetransmit() {
	if c.inFlight() == 0 {
		return
	}
	c.goBackN()
}

func (c *Conn) goBackN() {
	for _, seg := range c.unacked[c.unaHead:] {
		c.Retransmits++
		c.sendData(seg)
	}
	c.armRTO(false)
}

// handle processes an inbound segment for an existing connection.
func (c *Conn) handle(f *ethernet.Frame) {
	syn := f.Flags&ethernet.FlagSyn != 0
	switch {
	case syn && f.Flags&ethernet.FlagAck != 0: // SYN-ACK at client
		if c.state == stateSynSent {
			c.synTimer.Cancel()
			c.synTimer = sim.Event{}
			c.state = stateEstablished
			// ack=0 in the data sequence space: the handshake must not
			// disturb byte-count window accounting.
			c.sendControl(ethernet.FlagAck, 0, 0)
			c.established.Broadcast()
		}
		return
	case syn: // retransmitted SYN at server: the SYN-ACK was lost
		if c.state == stateSynRcvd {
			c.sendControl(ethernet.FlagSyn|ethernet.FlagAck, 0, 1)
		}
		return
	}
	if c.state == stateSynRcvd {
		c.state = stateEstablished
		if c.onEstablished != nil {
			c.onEstablished()
			c.onEstablished = nil
		}
		c.established.Broadcast()
	}
	dataLen := len(f.Payload)
	if dataLen > 0 {
		switch {
		case f.TCP.Seq == c.rcvNext:
			c.SegsIn++
			c.rcvNext += int64(dataLen)
			c.buffer(f.Payload)
			c.readable()
			c.unackedSegs++
			if c.unackedSegs >= c.h.cfg.AckEvery {
				c.sendAckNow()
			} else if c.delAckAt == 0 {
				c.delAckAt = c.h.k.Now().Add(c.h.cfg.DelayedAckTimeout)
				if !c.delAck.Pending() {
					c.delAck = c.h.k.At(c.delAckAt, "tcp.delack", c.onDelAckFn)
				}
			}
		default:
			// Duplicate (retransmission after a lost ACK) or a
			// hole after a lost segment (go-back-N: no out-of-order
			// buffering). Either way, re-announce the cumulative ACK
			// immediately so the sender converges.
			c.unackedSegs = 0
			c.delAckAt = 0
			c.sendControl(ethernet.FlagAck, 0, c.rcvNext)
		}
	}
	if f.Flags&ethernet.FlagAck != 0 {
		ack := f.TCP.Ack
		switch {
		case ack > c.sndUna:
			c.sndUna = ack
			c.dupAcks = 0
			for c.inFlight() > 0 {
				seg := c.unacked[c.unaHead]
				if seg.seq+int64(len(seg.data)) > ack {
					break
				}
				c.unacked[c.unaHead] = nil
				c.unaHead++
				c.freeSeg(seg)
			}
			if c.unaHead == len(c.unacked) {
				c.unacked = c.unacked[:0]
				c.unaHead = 0
			}
			c.armRTO(true)
			c.pump()
			c.writers.Broadcast()
		case ack == c.sndUna && dataLen == 0 && c.inFlight() > 0:
			// One fast retransmit per loss window: a go-back-N resend
			// itself provokes duplicate ACKs, which must not re-trigger.
			c.dupAcks++
			if c.dupAcks >= 3 && c.fastAt != c.sndUna+1 {
				c.fastAt = c.sndUna + 1
				c.fastRetransmit()
			}
		}
	}
}

// onDelAck fires the physical delayed-ACK timer: disarmed (delAckAt zero,
// the ACK already went out) it dies quietly; a deadline still in the
// future re-arms; a genuine expiry emits the ACK.
func (c *Conn) onDelAck() {
	c.delAck = sim.Event{}
	if c.delAckAt == 0 {
		return
	}
	if now := c.h.k.Now(); now < c.delAckAt {
		c.delAck = c.h.k.At(c.delAckAt, "tcp.delack", c.onDelAckFn)
		return
	}
	c.sendAckNow()
}

func (c *Conn) sendAckNow() {
	if c.unackedSegs == 0 {
		return
	}
	c.unackedSegs = 0
	c.delAckAt = 0
	c.sendControl(ethernet.FlagAck, 0, c.rcvNext)
}

// buffer appends an in-order segment's payload to the receive buffer.
// A connection that is never fully drained would otherwise grow its
// consumed prefix without bound, so the live bytes move to the front
// once the prefix outweighs them — each byte is moved at most once per
// byte consumed.
func (c *Conn) buffer(data []byte) {
	if live := len(c.rcvBuf) - c.rcvOff; c.rcvOff > live {
		copy(c.rcvBuf, c.rcvBuf[c.rcvOff:])
		c.rcvBuf = c.rcvBuf[:live]
		c.rcvOff = 0
	}
	c.rcvBuf = append(c.rcvBuf, data...)
}

// readable announces a change in what a read would return — data or a
// failure — to blocked readers and to the OnReadable
// callback, if it is armed.
func (c *Conn) readable() {
	c.readers.Broadcast()
	if c.readArmed {
		c.readArmed = false
		c.h.k.At(c.h.k.Now(), c.wakeName, c.onReadable)
	}
}

// OnReadable makes fn the connection's event-context reader: fn runs once
// now, in a kernel event of its own named "start:"+name, and again in an
// event named "wake:"+name at the instant of each later read-state change
// (data or a failure) — but only if a TryRead has come up
// short since fn last ran, so a reader that is not waiting costs nothing,
// and at most one run is pending. These are exactly the events, in the
// same queue positions, that a process looping over ReadErr would consume.
// A nil fn removes the reader; its pending runs still fire.
func (c *Conn) OnReadable(name string, fn func()) {
	c.onReadable, c.readArmed = fn, false
	if fn == nil {
		return
	}
	c.wakeName = "wake:" + name
	c.h.k.At(c.h.k.Now(), "start:"+name, fn)
}

// Buffered reports the bytes available to Read without blocking.
func (c *Conn) Buffered() int { return len(c.rcvBuf) - c.rcvOff }

// take consumes the next n buffered bytes, which must be available.
func (c *Conn) take(n int) []byte {
	end := c.rcvOff + n
	out := c.rcvBuf[c.rcvOff:end:end]
	c.rcvOff = end
	if end == len(c.rcvBuf) {
		c.rcvBuf, c.rcvOff = c.rcvBuf[:0], 0
	}
	return out
}

// Read blocks p until n bytes are available, then returns them. If the
// connection fails before n bytes arrive, Read panics — the message
// protocols built on top never truncate. The slice is only lent: see
// ReadErr.
func (c *Conn) Read(p *sim.Proc, n int) []byte {
	out, err := c.ReadErr(p, n)
	if err != nil {
		panic(fmt.Sprintf("netstack: Read on %s: %v (%d/%d bytes buffered)", c.h.name, err, c.Buffered(), n))
	}
	return out
}

// ReadErr is Read returning an error instead of panicking: the
// connection's failure cause (ErrTimedOut, ErrReset) when it dies while
// blocked. Buffered data already received stays readable after a failure.
//
// The returned slice aliases the receive buffer, whose storage later
// segments reuse: it is valid until the caller next reads from the
// connection or gives up the processor (blocks, or returns to the event
// loop). Copy or parse it before then.
func (c *Conn) ReadErr(p *sim.Proc, n int) ([]byte, error) {
	for c.Buffered() < n {
		if c.err != nil {
			return nil, c.err
		}
		c.readers.Wait(p)
	}
	return c.take(n), nil
}

// TryRead is ReadErr for event context: where ReadErr would block it
// returns ErrWouldBlock and arms the OnReadable callback instead. The
// slice is lent on ReadErr's terms.
func (c *Conn) TryRead(n int) ([]byte, error) {
	if c.Buffered() >= n {
		return c.take(n), nil
	}
	if c.err != nil {
		return nil, c.err
	}
	c.readArmed = c.onReadable != nil
	return nil, ErrWouldBlock
}
