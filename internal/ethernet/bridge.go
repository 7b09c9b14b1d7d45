package ethernet

// bridgeIDBase is the station address of segment 0's bridge. Host
// addresses are bounded far below it (the trace format caps them at
// 65534), so bridge stations never collide with — or match the Dst of —
// any host frame.
const bridgeIDBase = 1 << 20

// Bridge is one port of a transparent learning switch: a station on a
// segment that observes every delivered frame, learns which segment each
// source address lives on, and relays frames addressed off-segment
// through trunk conduits to its peer bridges. Unknown and broadcast
// destinations flood to all other segments, exactly like a real
// 802.1D bridge before its filtering database converges.
//
// The bridge itself is partition-local state: the learned table is only
// read and written from its own segment's kernel, so no synchronization
// is needed. Cross-segment hand-off happens through the send conduit,
// which the topology runner implements as an engine Send honoring the
// conservative lookahead contract.
type Bridge struct {
	seg     *Segment
	station *Station
	segIdx  int
	nSeg    int
	// learned maps a source address to segment index + 1 (0 = not yet
	// learned). A dense slice sized for the topology's host count keeps
	// the forwarding decision a bounds check and an array load —
	// thousand-host fabrics hit this on every delivered frame, where
	// the old map paid a hash per lookup.
	learned []int32
	send    func(dstSeg int, f *Frame)
}

// NewBridge attaches a bridge station to seg (segment segIdx of nSeg)
// and wires it to observe delivered frames. hostCap sizes the learning
// table: host station addresses are expected in [0, hostCap). send
// conveys a frame into another segment's bridge; the topology runner
// routes it across the partition boundary with trunk latency applied.
func NewBridge(seg *Segment, segIdx, nSeg, hostCap int, send func(dstSeg int, f *Frame)) *Bridge {
	if hostCap < 1 {
		hostCap = 1
	}
	b := &Bridge{
		seg:     seg,
		segIdx:  segIdx,
		nSeg:    nSeg,
		learned: make([]int32, hostCap),
		send:    send,
	}
	b.station = seg.AttachID("bridge", bridgeIDBase+segIdx)
	seg.OnForward(b.sawFrame)
	return b
}

// learn records that addr was seen on segment seg, growing the table if
// an address beyond the declared host capacity appears.
func (b *Bridge) learn(addr, seg int) {
	if addr < 0 {
		return
	}
	if addr >= len(b.learned) {
		grown := make([]int32, addr+1)
		copy(grown, b.learned)
		b.learned = grown
	}
	b.learned[addr] = int32(seg) + 1
}

// lookup reports the segment addr was learned on.
func (b *Bridge) lookup(addr int) (seg int, known bool) {
	if addr < 0 || addr >= len(b.learned) {
		return 0, false
	}
	v := b.learned[addr]
	return int(v) - 1, v != 0
}

// sawFrame is the promiscuous observation hook: runs at the end of every
// successful delivery on the local segment.
func (b *Bridge) sawFrame(tx *Station, f *Frame) {
	if tx == b.station {
		// A frame this bridge relayed onto the local wire: the source
		// lives on another segment (already learned at trunk ingress),
		// and relaying it again would loop.
		return
	}
	b.learn(f.Src, b.segIdx)
	if f.Dst == Broadcast {
		b.flood(f)
		return
	}
	seg, known := b.lookup(f.Dst)
	switch {
	case !known:
		b.flood(f)
	case seg == b.segIdx:
		// Local traffic: already delivered, nothing to relay.
	default:
		b.send(seg, f)
	}
}

// flood relays f to every other segment.
func (b *Bridge) flood(f *Frame) {
	for s := 0; s < b.nSeg; s++ {
		if s == b.segIdx {
			continue
		}
		b.send(s, f)
	}
}

// DeliverFromTrunk accepts a frame arriving over a trunk from srcSeg:
// learn the source's segment, then transmit the frame locally with its
// original source address preserved.
func (b *Bridge) DeliverFromTrunk(srcSeg int, f *Frame) {
	b.learn(f.Src, srcSeg)
	b.station.Forward(f)
}
