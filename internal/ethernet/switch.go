package ethernet

import (
	"fmt"

	"fxnet/internal/sim"
)

// Port is the attachment point a host stack binds to: both the shared
// segment's Station and the Switch's SwitchPort implement it, so the same
// transport stack runs over either medium.
type Port interface {
	ID() int
	Send(*Frame)
	OnReceive(func(*Frame))
	// Silence discards what the port has not finished transmitting: a
	// crashed host's adaptor goes quiet at once.
	Silence()
}

// TrafficSource is any medium a promiscuous capture can tap. On the
// shared segment this is the paper's setup — every frame crosses one
// wire; on a switch it models a monitoring (SPAN) port.
type TrafficSource interface {
	Tap(fn func(Capture))
}

var (
	_ Port          = (*Station)(nil)
	_ Port          = (*SwitchPort)(nil)
	_ TrafficSource = (*Segment)(nil)
	_ TrafficSource = (*Switch)(nil)
)

// fwdEntry is one frame waiting out the store-and-forward latency.
type fwdEntry struct {
	at   sim.Time
	from *SwitchPort
	f    *Frame
}

// Switch is a store-and-forward Ethernet switch with full-duplex links:
// each port has an independent ingress (host→switch) and egress
// (switch→host) wire at the link rate, with output queuing and no
// collisions — the "next generation LAN" the paper's introduction
// anticipates. It exists for the shared-vs-switched ablation.
//
// The forwarding path allocates nothing in steady state: each port's
// ingress and egress callbacks are allocated once with precomputed
// names, queues pop from head indexes that rewind when drained, and the
// latency delay runs through a single shared FIFO (constant latency
// keeps it time-ordered) with one once-allocated timer callback.
type Switch struct {
	k       *sim.Kernel
	bitRate float64
	latency sim.Duration
	ports   []*SwitchPort
	taps    []func(Capture)

	// Store-and-forward FIFO: frames that finished ingress and are
	// waiting out the fabric latency.
	fwdQ       []fwdEntry
	fwdHead    int
	fwdPending bool
	fwdFn      func() // once-allocated latency-expiry callback

	// guaranteed marks (src, dst) connections with a QoS commitment:
	// their frames use the high-priority egress queue, modeling the
	// per-connection guarantees of the ATM-class networks the paper's
	// introduction anticipates.
	guaranteed map[[2]int]bool

	// Delivered / DeliveredBytes count egress completions.
	Delivered      int64
	DeliveredBytes int64
	// MaxQueue tracks the deepest egress queue observed.
	MaxQueue int
}

// Guarantee gives the (src, dst) connection strict egress priority over
// best-effort traffic.
func (sw *Switch) Guarantee(src, dst int) {
	if sw.guaranteed == nil {
		sw.guaranteed = make(map[[2]int]bool)
	}
	sw.guaranteed[[2]int{src, dst}] = true
}

// NewSwitch creates a switch whose links run at bitRate bits/s (0 selects
// 10 Mb/s, matching the shared segment for like-for-like comparisons)
// with the given store-and-forward latency.
func NewSwitch(k *sim.Kernel, bitRate float64, latency sim.Duration) *Switch {
	if bitRate <= 0 {
		bitRate = DefaultBitRate
	}
	if latency < 0 {
		panic("ethernet: negative switch latency")
	}
	sw := &Switch{k: k, bitRate: bitRate, latency: latency}
	sw.fwdFn = sw.releaseForward
	return sw
}

// Tap registers a monitoring callback invoked at each egress completion,
// modeling a SPAN/mirror port.
func (sw *Switch) Tap(fn func(Capture)) { sw.taps = append(sw.taps, fn) }

// Attach adds a port.
func (sw *Switch) Attach(name string) *SwitchPort {
	p := &SwitchPort{
		sw:          sw,
		id:          len(sw.ports),
		name:        name,
		ingressName: "switch.ingress:" + name,
		egressName:  "switch.egress:" + name,
	}
	p.ingressFn = p.ingressDone
	p.egressFn = p.egressDone
	sw.ports = append(sw.ports, p)
	return p
}

func (sw *Switch) txDuration(f *Frame) sim.Duration {
	return sim.DurationOf(float64(f.WireBytes()*8) / sw.bitRate)
}

// SwitchPort is one full-duplex attachment. Its queues pop from head
// indexes and rewind to the start of their backing arrays whenever they
// drain, so steady-state traffic reuses one allocation per queue.
type SwitchPort struct {
	sw          *Switch
	id          int
	name        string
	ingressName string // precomputed "switch.ingress:"+name
	egressName  string // precomputed "switch.egress:"+name
	recv        func(*Frame)

	// Ingress (host → switch).
	inQ       []*Frame
	inHead    int
	inFlight  *Frame // frame currently serializing up the link
	ingressFn func() // once-allocated ingress-completion callback
	ingressEv sim.Event

	// Egress (switch → host): a strict-priority pair of queues.
	outHi     []*Frame
	outHiHead int
	outQ      []*Frame
	outHead   int
	outFlight *Frame // frame currently serializing down the link
	egressFn  func() // once-allocated egress-completion callback
}

// ID reports the port's address.
func (p *SwitchPort) ID() int { return p.id }

// OnReceive registers the delivery upcall.
func (p *SwitchPort) OnReceive(fn func(*Frame)) { p.recv = fn }

// Send transmits a frame toward the switch.
func (p *SwitchPort) Send(f *Frame) {
	if f.Dst == p.id {
		panic(fmt.Sprintf("ethernet: port %q sending to itself", p.name))
	}
	if f.NetLen > MaxNetBytes {
		panic(fmt.Sprintf("ethernet: frame NetLen %d exceeds MTU %d", f.NetLen, MaxNetBytes))
	}
	f.Src = p.id
	p.inQ = append(p.inQ, f)
	if p.inFlight == nil {
		p.pumpIngress()
	}
}

// Silence discards the frames queued up the link and cuts short the one
// serializing: nothing the crashed host had not fully sent reaches the
// switch. Frames already inside the switch are its own and go on.
func (p *SwitchPort) Silence() {
	p.ingressEv.Cancel()
	p.ingressEv, p.inFlight = sim.Event{}, nil
	clear(p.inQ)
	p.inQ, p.inHead = p.inQ[:0], 0
}

// pumpIngress serializes the next queued frame up the link.
func (p *SwitchPort) pumpIngress() {
	if p.inHead == len(p.inQ) {
		p.inQ = p.inQ[:0]
		p.inHead = 0
		return
	}
	f := p.inQ[p.inHead]
	p.inQ[p.inHead] = nil
	p.inHead++
	p.inFlight = f
	sw := p.sw
	p.ingressEv = sw.k.After(sw.txDuration(f)+InterFrameGap, p.ingressName, p.ingressFn)
}

// ingressDone fires when the in-flight frame has fully arrived at the
// switch: it enters the store-and-forward FIFO and the next queued frame
// starts up the link.
func (p *SwitchPort) ingressDone() {
	f := p.inFlight
	p.inFlight = nil
	p.sw.enqueueForward(p, f)
	p.pumpIngress()
}

// enqueueForward places a fully received frame in the latency FIFO and
// arms the release timer if it is not already running. Latency is
// constant, so arrival order is release order and one timer (for the
// head entry) suffices.
func (sw *Switch) enqueueForward(from *SwitchPort, f *Frame) {
	at := sw.k.Now().Add(sw.latency)
	sw.fwdQ = append(sw.fwdQ, fwdEntry{at: at, from: from, f: f})
	if !sw.fwdPending {
		sw.fwdPending = true
		sw.k.At(at, "switch.forward", sw.fwdFn)
	}
}

// releaseForward pops every FIFO entry whose latency has expired,
// forwards it, and re-arms the timer for the new head (if any).
func (sw *Switch) releaseForward() {
	now := sw.k.Now()
	for sw.fwdHead < len(sw.fwdQ) && sw.fwdQ[sw.fwdHead].at <= now {
		e := sw.fwdQ[sw.fwdHead]
		sw.fwdQ[sw.fwdHead] = fwdEntry{}
		sw.fwdHead++
		sw.forward(e.from, e.f)
	}
	if sw.fwdHead == len(sw.fwdQ) {
		sw.fwdQ = sw.fwdQ[:0]
		sw.fwdHead = 0
		sw.fwdPending = false
		return
	}
	sw.k.At(sw.fwdQ[sw.fwdHead].at, "switch.forward", sw.fwdFn)
}

// forward places the frame on the destination port's egress queue (all
// other ports for broadcast).
func (sw *Switch) forward(from *SwitchPort, f *Frame) {
	for _, dst := range sw.ports {
		if dst == from {
			continue
		}
		if f.Dst == Broadcast || f.Dst == dst.id {
			if sw.guaranteed[[2]int{f.Src, f.Dst}] {
				dst.outHi = append(dst.outHi, f)
			} else {
				dst.outQ = append(dst.outQ, f)
			}
			if n := (len(dst.outQ) - dst.outHead) + (len(dst.outHi) - dst.outHiHead); n > sw.MaxQueue {
				sw.MaxQueue = n
			}
			if dst.outFlight == nil {
				dst.pumpEgress()
			}
		}
	}
}

// pumpEgress serializes the next egress frame down to the host,
// guaranteed traffic first.
func (p *SwitchPort) pumpEgress() {
	var f *Frame
	switch {
	case p.outHiHead < len(p.outHi):
		f = p.outHi[p.outHiHead]
		p.outHi[p.outHiHead] = nil
		p.outHiHead++
	case p.outHead < len(p.outQ):
		f = p.outQ[p.outHead]
		p.outQ[p.outHead] = nil
		p.outHead++
	default:
		if p.outHiHead == len(p.outHi) {
			p.outHi = p.outHi[:0]
			p.outHiHead = 0
		}
		if p.outHead == len(p.outQ) {
			p.outQ = p.outQ[:0]
			p.outHead = 0
		}
		return
	}
	p.outFlight = f
	sw := p.sw
	sw.k.After(sw.txDuration(f)+InterFrameGap, p.egressName, p.egressFn)
}

// egressDone completes one delivery: stats, SPAN taps, the host upcall,
// then the next egress frame.
func (p *SwitchPort) egressDone() {
	f := p.outFlight
	p.outFlight = nil
	sw := p.sw
	sw.Delivered++
	sw.DeliveredBytes += int64(f.CapturedSize())
	cap := Capture{
		Time: sw.k.Now(), Size: f.CapturedSize(),
		Src: f.Src, Dst: f.Dst, Proto: f.Proto,
		SrcPort: f.SrcPort, DstPort: f.DstPort, Flags: f.Flags,
	}
	for _, tap := range sw.taps {
		tap(cap)
	}
	if p.recv != nil {
		p.recv(f)
	}
	p.pumpEgress()
}
