// Package ethernet models the paper's measurement substrate: a single
// shared 10 Mb/s Ethernet collision domain (the multi-segment bridged LAN
// of DEC 3000/400 workstations behaves as one collision domain in the
// paper) with CSMA/CD — carrier sense, inter-frame gap arbitration,
// collision detection near simultaneous starts, and truncated binary
// exponential backoff.
//
// Frames carry both real payload bytes for delivery and the protocol
// metadata (transport protocol, ports, flags) that the capture layer
// records, mirroring what tcpdump extracts from the wire.
package ethernet

import (
	"fmt"
	"math/rand"

	"fxnet/internal/sim"
)

// Wire constants for 10BASE Ethernet. Sizes are bytes; the paper counts a
// packet's size as Ethernet header + IP + transport + data + trailer
// (58–1518 bytes), excluding the preamble, so CapturedSize does too.
const (
	HeaderBytes   = 14 // dst MAC, src MAC, ethertype
	TrailerBytes  = 4  // frame check sequence
	PreambleBytes = 8  // preamble + SFD, on the wire but not captured
	MinWireBytes  = 64 // minimum frame (padding applies below this)
	MaxWireBytes  = 1518
	// MaxNetBytes is the MTU-limited network-layer packet size.
	MaxNetBytes = MaxWireBytes - HeaderBytes - TrailerBytes // 1500
)

// Timing constants.
const (
	SlotTime        = sim.Duration(51200) // 51.2 µs
	InterFrameGap   = sim.Duration(9600)  // 9.6 µs
	JamTime         = sim.Duration(4800)  // 48 bit times
	CollisionWindow = sim.Duration(25600) // max propagation delay, ½ slot
	DefaultBitRate  = 10e6                // 10 Mb/s, 1.25 MB/s aggregate
	backoffCap      = 10                  // BEB exponent cap
)

// Broadcast is the destination address that delivers to every station.
const Broadcast = -1

// Proto identifies the transport protocol of a frame for capture.
type Proto uint8

// Transport protocols the capture layer distinguishes.
const (
	ProtoOther Proto = iota
	ProtoTCP
	ProtoUDP
)

func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return "other"
	}
}

// Frame flag bits, recorded in captures for analysis.
const (
	FlagAck  = 1 << iota // TCP segment carrying only an acknowledgment
	FlagSyn              // TCP connection setup
	FlagFin              // TCP teardown: never sent, its bit stays reserved in captures
	FlagData             // carries application payload
)

// TCPHeader is the part of a TCP header the receiving stack needs and the
// capture layer does not: byte sequence numbers in the connection's data
// space. SYN travels in Frame.Flags; a segment's data length is
// len(Frame.Payload).
type TCPHeader struct {
	Seq, Ack int64
}

// Frame is one Ethernet frame. NetLen is the network-layer length (IP
// header + transport header + payload) used for sizing; Payload carries
// the actual application bytes for delivery to the destination stack.
//
// A frame is immutable once sent, and one *Frame may be delivered many
// times over — a duplicate, a held reorder, a bridge flood onto several
// segments — so whoever allocates frames must leave their lifetime to the
// garbage collector and never reuse one.
type Frame struct {
	Src, Dst int // station indexes; Dst may be Broadcast
	Proto    Proto
	SrcPort  uint16
	DstPort  uint16
	Flags    uint8
	NetLen   int       // bytes at the network layer
	Payload  []byte    // application bytes (may be shorter than NetLen)
	TCP      TCPHeader // meaningful when Proto is ProtoTCP
}

// CapturedSize is the size tcpdump would report: header + network bytes +
// trailer, no preamble and no padding.
func (f *Frame) CapturedSize() int { return HeaderBytes + f.NetLen + TrailerBytes }

// WireBytes is the number of bytes serialized on the wire, including
// preamble and minimum-frame padding.
func (f *Frame) WireBytes() int {
	n := f.CapturedSize()
	if n < MinWireBytes {
		n = MinWireBytes
	}
	return n + PreambleBytes
}

// Capture is the record a promiscuous tap receives for every successfully
// delivered frame — the same tuple the paper's tcpdump traces provide.
type Capture struct {
	Time    sim.Time
	Size    int // CapturedSize of the frame
	Src     int
	Dst     int
	Proto   Proto
	SrcPort uint16
	DstPort uint16
	Flags   uint8
}

// Stats counts segment-level activity.
type Stats struct {
	Frames        int64 // successfully delivered frames
	Bytes         int64 // captured bytes of delivered frames
	Collisions    int64 // collision episodes
	MaxBackoffHit int64 // times a station reached the backoff exponent cap
	Corrupted     int64 // frames dropped by injected FCS corruption
	Dropped       int64 // frames discarded by fault gates (link down, partition)
	Duplicated    int64 // frames delivered twice by injected duplication
	Reordered     int64 // frames delivered late by injected reordering
}

// Add accumulates o into s — the totals over a multi-segment fabric.
func (s *Stats) Add(o Stats) {
	s.Frames += o.Frames
	s.Bytes += o.Bytes
	s.Collisions += o.Collisions
	s.MaxBackoffHit += o.MaxBackoffHit
	s.Corrupted += o.Corrupted
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Reordered += o.Reordered
}

// Segment is one shared collision domain.
type Segment struct {
	k        *sim.Kernel
	bitRate  float64
	stations []*Station
	taps     []func(Capture)
	rng      *rand.Rand

	state    segState
	txStart  sim.Time
	txFrom   *Station
	txEnd    sim.Event
	idleAt   sim.Time // instant the medium last became idle
	waiters  []*Station
	arbAt    sim.Time
	arbEvent sim.Event
	// contenders is arbitrate's scratch slice, reused across arbitration
	// rounds so contention resolution allocates nothing.
	contenders []*Station

	// Once-allocated event callbacks: scheduling a delivery, a jam end,
	// or an arbitration allocates no closure on the hot path.
	deliverFn func()
	jamEndFn  func()
	arbFn     func()

	// dropProb is the injected frame-corruption probability: a corrupted
	// frame occupies the wire but fails its FCS everywhere, so neither
	// the capture taps nor the destination see it.
	dropProb float64
	dropRng  *rand.Rand

	// Fault-injection gates (see internal/faults). linkDown marks
	// stations whose attachment is administratively severed; segmentDown
	// severs the whole medium; group partitions the stations (frames
	// cross only within a group; nil means no partition). Gated frames
	// still occupy the wire — the transmitter cannot sense a dead drop
	// cable — but are counted in Stats.Dropped instead of delivered.
	linkDown    map[int]bool
	segmentDown bool
	group       map[int]int

	// dupProb / reorderProb inject frame duplication and reordering; held
	// is a reordered frame awaiting re-delivery after the next frame.
	dupProb     float64
	reorderProb float64
	faultRng    *rand.Rand
	held        *Frame

	// Multi-segment hooks: onForward lets a learning bridge observe
	// delivered frames; tapFilter keeps transit copies out of captures.
	onForward func(tx *Station, f *Frame)
	tapFilter func(dst int) bool

	stats Stats
}

// faultRand lazily creates the dedicated fault-injection stream so that
// enabling faults never perturbs the backoff or corruption streams.
func (s *Segment) faultRand() *rand.Rand {
	if s.faultRng == nil {
		s.faultRng = s.k.Rand("ethernet.fault")
	}
	return s.faultRng
}

// SetLinkDown severs (down=true) or restores (down=false) one station's
// attachment. While down, frames the station transmits are dropped at the
// end of their wire occupancy and frames addressed to it vanish, both
// counted in Stats.Dropped.
func (s *Segment) SetLinkDown(station int, down bool) {
	if station < 0 || station >= len(s.stations) {
		panic(fmt.Sprintf("ethernet: SetLinkDown on unknown station %d", station))
	}
	if s.linkDown == nil {
		s.linkDown = make(map[int]bool)
	}
	s.linkDown[station] = down
}

// SetSegmentDown severs or restores the entire medium (a backbone cut):
// every frame completing transmission while down is dropped.
func (s *Segment) SetSegmentDown(down bool) { s.segmentDown = down }

// SetPartition splits the stations into isolated groups: a frame is
// delivered only when source and destination share a group. Stations not
// named in any group are unreachable from everyone. Heal removes the
// partition.
func (s *Segment) SetPartition(groups [][]int) {
	s.group = make(map[int]int)
	for g, members := range groups {
		for _, st := range members {
			s.group[st] = g
		}
	}
}

// Heal removes any partition installed by SetPartition.
func (s *Segment) Heal() { s.group = nil }

// SetBitRate overrides the segment's bit rate (bits per second) from now
// on — the BitRateDegrade fault. In-flight transmissions keep the rate
// they started with.
func (s *Segment) SetBitRate(bps float64) {
	if bps <= 0 {
		panic("ethernet: SetBitRate requires a positive rate")
	}
	s.bitRate = bps
}

// SetDuplicateProb makes each delivered frame arrive twice with
// probability p — the duplicate-delivery fault (a bridge forwarding loop).
func (s *Segment) SetDuplicateProb(p float64) {
	if p < 0 || p > 1 {
		panic("ethernet: duplicate probability out of range")
	}
	s.dupProb = p
	if p > 0 {
		s.faultRand()
	}
}

// SetReorderProb makes each delivered frame held back with probability p
// and re-delivered immediately after the next successful frame — the
// reordering fault (a multipath bridge race).
func (s *Segment) SetReorderProb(p float64) {
	if p < 0 || p > 1 {
		panic("ethernet: reorder probability out of range")
	}
	s.reorderProb = p
	if p > 0 {
		s.faultRand()
	}
}

// gated reports whether a fault gate discards a frame from src to dst.
func (s *Segment) gated(src, dst int) bool {
	if s.segmentDown {
		return true
	}
	if s.linkDown[src] {
		return true
	}
	if dst != Broadcast && s.linkDown[dst] {
		return true
	}
	if s.group != nil && dst != Broadcast {
		sg, ok1 := s.group[src]
		dg, ok2 := s.group[dst]
		if !ok1 || !ok2 || sg != dg {
			return true
		}
	}
	return false
}

// SetDropProb enables fault injection: each frame is independently
// corrupted with probability p ∈ [0, 1].
func (s *Segment) SetDropProb(p float64) {
	if p < 0 || p > 1 {
		panic("ethernet: drop probability out of range")
	}
	s.dropProb = p
	if s.dropRng == nil {
		s.dropRng = s.k.Rand("ethernet.drop")
	}
}

type segState int

const (
	segIdle segState = iota
	segBusy
	segJam
)

// NewSegment creates a shared segment on kernel k with the given bit rate
// (bits per second); a non-positive rate selects DefaultBitRate.
func NewSegment(k *sim.Kernel, bitRate float64) *Segment {
	if bitRate <= 0 {
		bitRate = DefaultBitRate
	}
	s := &Segment{
		k:       k,
		bitRate: bitRate,
		rng:     k.Rand("ethernet.segment"),
		idleAt:  -sim.Time(InterFrameGap), // medium usable at t=0
	}
	s.deliverFn = s.deliver
	s.jamEndFn = s.jamEnd
	s.arbFn = s.arbitrate
	return s
}

// Stats returns a copy of the segment counters.
func (s *Segment) Stats() Stats { return s.stats }

// Tap registers a promiscuous-mode capture callback, invoked at the end of
// every successfully delivered frame.
func (s *Segment) Tap(fn func(Capture)) { s.taps = append(s.taps, fn) }

// SetTapFilter restricts capture taps to frames whose destination
// satisfies keep (broadcast frames always pass). Multi-segment
// topologies use it so a monitor on each segment records only frames
// addressed into that segment, not transit copies flooded by bridges.
func (s *Segment) SetTapFilter(keep func(dst int) bool) { s.tapFilter = keep }

// OnForward registers a callback invoked (in event context) after every
// successful delivery with the transmitting station and the frame — the
// promiscuous hook a learning bridge uses to pick up frames that need
// relaying to other segments.
func (s *Segment) OnForward(fn func(tx *Station, f *Frame)) { s.onForward = fn }

// Attach creates a new station on the segment and returns it. The name is
// used in diagnostics only; the returned station's ID is its address.
func (s *Segment) Attach(name string) *Station {
	return s.AttachID(name, len(s.stations))
}

// AttachID creates a station with an explicit address. Multi-segment
// topologies attach each host with its global host index so frame
// addresses stay meaningful across segments; bridge stations use
// addresses far above any host. Duplicate addresses panic.
func (s *Segment) AttachID(name string, id int) *Station {
	for _, st := range s.stations {
		if st.id == id {
			panic(fmt.Sprintf("ethernet: duplicate station id %d (%q and %q)", id, st.name, name))
		}
	}
	st := &Station{seg: s, id: id, name: name, retryName: "eth.retry:" + name}
	st.contendFn = st.contend
	s.stations = append(s.stations, st)
	return st
}

// txDuration is the serialization time of frame f at the segment rate.
func (s *Segment) txDuration(f *Frame) sim.Duration {
	bits := float64(f.WireBytes() * 8)
	return sim.DurationOf(bits / s.bitRate)
}

// Station is one attached network adaptor with a FIFO transmit queue.
// The queue pops from a head index and rewinds to the start of its
// backing array whenever it drains, so steady-state traffic reuses one
// allocation instead of pinning consumed prefixes.
type Station struct {
	seg       *Segment
	id        int
	name      string
	retryName string // precomputed "eth.retry:"+name
	queue     []*Frame
	qhead     int
	attempts  int
	pending   bool   // a contention attempt is registered or scheduled
	waiting   bool   // registered in seg.waiters
	contendFn func() // once-allocated contention callback
	retry     sim.Event
	recv      func(*Frame)
}

// ID reports the station's address on the segment.
func (st *Station) ID() int { return st.id }

// Name reports the diagnostic name given at Attach.
func (st *Station) Name() string { return st.name }

// OnReceive registers the upcall invoked (in event context) for every
// frame addressed to this station or broadcast. A station has exactly one
// receiver; calling OnReceive again replaces it.
func (st *Station) OnReceive(fn func(*Frame)) { st.recv = fn }

// QueueLen reports the number of frames waiting to transmit.
func (st *Station) QueueLen() int { return len(st.queue) - st.qhead }

// head returns the frame at the front of the transmit queue.
func (st *Station) head() *Frame { return st.queue[st.qhead] }

// popHead removes the front frame; a drained queue rewinds its storage.
func (st *Station) popHead() {
	st.queue[st.qhead] = nil
	st.qhead++
	if st.qhead == len(st.queue) {
		st.queue = st.queue[:0]
		st.qhead = 0
	}
}

// Send enqueues a frame for transmission. The frame's Src is forced to
// this station. Sending to self panics: the loopback path belongs to the
// host stack, not the wire.
func (st *Station) Send(f *Frame) {
	if f.Dst == st.id {
		panic(fmt.Sprintf("ethernet: station %q sending to itself", st.name))
	}
	f.Src = st.id
	st.enqueue(f)
}

// Forward enqueues a frame preserving its original Src address — how a
// transparent bridge relays a frame on behalf of a host on another
// segment.
func (st *Station) Forward(f *Frame) { st.enqueue(f) }

func (st *Station) enqueue(f *Frame) {
	if f.NetLen > MaxNetBytes {
		panic(fmt.Sprintf("ethernet: frame NetLen %d exceeds MTU %d", f.NetLen, MaxNetBytes))
	}
	st.queue = append(st.queue, f)
	if !st.pending {
		st.pending = true
		st.contend()
	}
}

// Silence is a crashed host's adaptor going dead: every frame queued for
// transmission is discarded, a pending backoff retry is cancelled, and a
// frame on the wire is cut short — the runt fails its FCS everywhere, so
// no station and no tap sees it, and the medium idles from now. The
// station transmits again once its host enqueues a new frame.
func (st *Station) Silence() {
	s := st.seg
	if s.txFrom == st {
		s.txEnd.Cancel()
		s.txEnd, s.txFrom = sim.Event{}, nil
		s.state, s.idleAt = segIdle, s.k.Now()
		if len(s.waiters) > 0 {
			s.scheduleArb(s.idleAt.Add(InterFrameGap))
		}
	}
	st.retry.Cancel()
	clear(st.queue)
	st.queue, st.qhead, st.attempts = st.queue[:0], 0, 0
	// A registered waiter stays pending until the next arbitration finds
	// its queue empty and lets it go.
	st.pending = st.waiting
}

// contend attempts to acquire the medium for the head-of-queue frame.
func (st *Station) contend() {
	s := st.seg
	now := s.k.Now()
	switch s.state {
	case segIdle:
		if ready := s.idleAt.Add(InterFrameGap); now < ready {
			st.joinWaiters()
			s.scheduleArb(ready)
			return
		}
		s.startTx(st)
	case segBusy:
		if now.Sub(s.txStart) <= CollisionWindow {
			s.collide(st)
			return
		}
		st.joinWaiters()
	case segJam:
		st.joinWaiters()
		s.scheduleArb(s.idleAt.Add(InterFrameGap))
	}
}

func (st *Station) joinWaiters() {
	if st.waiting {
		return
	}
	st.waiting = true
	st.seg.waiters = append(st.seg.waiters, st)
}

// backoff schedules the station's next contention attempt after a
// truncated binary exponential backoff delay.
func (st *Station) backoff(from sim.Time) {
	s := st.seg
	st.attempts++
	exp := st.attempts
	if exp > backoffCap {
		exp = backoffCap
		s.stats.MaxBackoffHit++
	}
	slots := s.rng.Intn(1 << exp)
	at := from.Add(sim.Duration(slots) * SlotTime)
	if at < s.k.Now() {
		at = s.k.Now()
	}
	st.retry = s.k.At(at, st.retryName, st.contendFn)
}

// startTx begins serializing st's head frame onto the wire.
func (s *Segment) startTx(st *Station) {
	f := st.head()
	s.state = segBusy
	s.txFrom = st
	s.txStart = s.k.Now()
	s.txEnd = s.k.After(s.txDuration(f), "eth.txend", s.deliverFn)
}

// deliver completes a successful transmission: update state, pop the
// transmitter's queue, invoke taps and the destination upcall, then
// rearbitrate. The transmitter and its head frame are read from the
// segment state, so the txEnd event needs no per-frame closure.
func (s *Segment) deliver() {
	now := s.k.Now()
	st := s.txFrom
	f := st.head()
	s.state = segIdle
	s.idleAt = now
	s.txFrom = nil
	s.txEnd = sim.Event{}

	st.popHead()
	st.attempts = 0

	delivered := true
	switch {
	case s.dropProb > 0 && s.dropRng.Float64() < s.dropProb:
		// The wire was occupied, but the frame is gone: skip taps and
		// delivery, then rearbitrate as usual.
		s.stats.Corrupted++
		delivered = false
	case s.gated(f.Src, f.Dst):
		// A fault gate (link down, segment down, partition) discards the
		// frame: the wire was occupied but nothing hears it.
		s.stats.Dropped++
		delivered = false
	case s.reorderProb > 0 && s.held == nil && s.faultRand().Float64() < s.reorderProb:
		// Hold the frame back; it is re-emitted right after the next
		// successful delivery (a multipath bridge race).
		s.stats.Reordered++
		s.held = f
		delivered = false
	}

	if delivered {
		s.emit(st, f)
		if s.dupProb > 0 && s.faultRand().Float64() < s.dupProb {
			s.stats.Duplicated++
			s.emit(st, f)
		}
		if held := s.held; held != nil {
			s.held = nil
			if !s.gated(held.Src, held.Dst) {
				// st is not the held frame's transmitter, but the hooks
				// that care (onForward/tapFilter) are never combined
				// with reorder injection — topology runs reject faults.
				s.emit(st, held)
			} else {
				s.stats.Dropped++
			}
		}
	}

	// The sender either requeues for its next frame or goes quiet.
	if st.QueueLen() > 0 {
		st.joinWaiters()
	} else {
		st.pending = false
	}
	if len(s.waiters) > 0 {
		s.scheduleArb(now.Add(InterFrameGap))
	}
}

// emit performs one delivery of a frame that survived the wire: capture
// taps, then the destination upcalls, then the bridge hook. tx is the
// station that put the frame on this wire (the original sender, or a
// bridge relaying it). A station whose link is down, or on the wrong
// side of a partition, misses broadcast deliveries.
func (s *Segment) emit(tx *Station, f *Frame) {
	s.stats.Frames++
	s.stats.Bytes += int64(f.CapturedSize())

	if s.tapFilter == nil || f.Dst == Broadcast || s.tapFilter(f.Dst) {
		cap := Capture{
			Time: s.k.Now(), Size: f.CapturedSize(),
			Src: f.Src, Dst: f.Dst, Proto: f.Proto,
			SrcPort: f.SrcPort, DstPort: f.DstPort, Flags: f.Flags,
		}
		for _, tap := range s.taps {
			tap(cap)
		}
	}
	for _, dst := range s.stations {
		if dst.id == f.Src || dst == tx {
			continue
		}
		if f.Dst == Broadcast || f.Dst == dst.id {
			if f.Dst == Broadcast && s.gated(f.Src, dst.id) {
				continue
			}
			if dst.recv != nil {
				dst.recv(f)
			}
		}
	}
	if s.onForward != nil {
		s.onForward(tx, f)
	}
}

// jamEnd returns the medium to idle after a jam and rearbitrates.
func (s *Segment) jamEnd() {
	if s.state == segJam {
		s.state = segIdle
	}
	if len(s.waiters) > 0 {
		s.scheduleArb(s.idleAt.Add(InterFrameGap))
	}
}

// collide handles a collision between the in-flight transmitter and
// latecomer st (or, via collideAll, among simultaneous contenders).
func (s *Segment) collide(st *Station) {
	s.stats.Collisions++
	s.txEnd.Cancel()
	s.txEnd = sim.Event{}
	tx := s.txFrom
	s.txFrom = nil
	now := s.k.Now()
	s.state = segJam
	jamEnd := now.Add(JamTime)
	s.idleAt = jamEnd
	s.k.At(jamEnd, "eth.jamend", s.jamEndFn)
	tx.backoff(jamEnd)
	st.backoff(jamEnd)
}

// collideAll handles n ≥ 2 stations starting in the same arbitration slot.
func (s *Segment) collideAll(contenders []*Station) {
	s.stats.Collisions++
	now := s.k.Now()
	s.state = segJam
	jamEnd := now.Add(JamTime)
	s.idleAt = jamEnd
	s.k.At(jamEnd, "eth.jamend", s.jamEndFn)
	for _, st := range contenders {
		st.backoff(jamEnd)
	}
}

// scheduleArb arranges a single arbitration event at time t (or the
// earliest already-scheduled arbitration, whichever is sooner).
func (s *Segment) scheduleArb(t sim.Time) {
	if t < s.k.Now() {
		t = s.k.Now()
	}
	if s.arbEvent.Pending() {
		if s.arbAt <= t {
			return
		}
		s.arbEvent.Cancel()
	}
	s.arbAt = t
	s.arbEvent = s.k.At(t, "eth.arb", s.arbFn)
}

// arbitrate resolves contention at an idle-medium instant: one waiter
// transmits; several collide.
func (s *Segment) arbitrate() {
	s.arbEvent = sim.Event{}
	if s.state != segIdle {
		return // busy again; deliver/jam-end will rearbitrate
	}
	if ready := s.idleAt.Add(InterFrameGap); s.k.Now() < ready {
		s.scheduleArb(ready)
		return
	}
	contenders := s.contenders[:0]
	for _, st := range s.waiters {
		st.waiting = false
		if st.QueueLen() > 0 {
			contenders = append(contenders, st)
		} else {
			st.pending = false
		}
	}
	s.waiters = s.waiters[:0]
	s.contenders = contenders
	switch len(contenders) {
	case 0:
	case 1:
		s.startTx(contenders[0])
	default:
		s.collideAll(contenders)
	}
}
