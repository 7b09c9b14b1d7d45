// Package trace is the reproduction's tcpdump: it captures every frame on
// a segment in promiscuous mode and stores the tuple the paper's traces
// contain — timestamp, size (Ethernet header + IP + transport + data +
// trailer), protocol, source and destination — plus ports and TCP flags
// for finer-grained filtering. It also provides the paper's notion of a
// connection (all traffic from one machine to another, any protocol) and
// text/binary codecs for traces.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// Packet is one captured frame. The layout is kept small: AIRSHED traces
// run to roughly a million packets. Addresses are 16-bit (Broadcast for
// all-stations destinations); the binary codec still emits the compact
// narrow record when every address fits in a byte.
type Packet struct {
	Time    sim.Time
	Size    uint16
	Src     uint16
	Dst     uint16
	Proto   ethernet.Proto
	Flags   uint8
	SrcPort uint16
	DstPort uint16
}

// IsAck reports whether the packet is a pure TCP acknowledgment.
func (p Packet) IsAck() bool {
	return p.Proto == ethernet.ProtoTCP && p.Flags&ethernet.FlagAck != 0 && p.Flags&ethernet.FlagData == 0
}

// Mark annotates an instant in the trace — fault injections, phase
// boundaries — so analyses can split a capture into pre/during/post
// windows around an event.
type Mark struct {
	Time  sim.Time
	Label string
}

// Trace is an ordered sequence of captured packets with metadata.
type Trace struct {
	Packets []Packet
	// Hosts maps addresses to names for presentation.
	Hosts []string
	// Meta carries free-form experiment parameters (program, P, N, seed).
	Meta map[string]string
	// Marks are time annotations (fault windows). They are persisted
	// through the codecs via the "marks" meta key, keeping the binary
	// format unchanged.
	Marks []Mark
}

// AddMark records an annotation at virtual time at.
func (t *Trace) AddMark(at sim.Time, label string) {
	t.Marks = append(t.Marks, Mark{Time: at, Label: label})
}

// encodeMarks renders marks as the "marks" meta value:
// "<ns>@<label>;<ns>@<label>". Labels must not contain ';'.
func encodeMarks(marks []Mark) string {
	parts := make([]string, len(marks))
	for i, m := range marks {
		parts[i] = fmt.Sprintf("%d@%s", int64(m.Time), m.Label)
	}
	return strings.Join(parts, ";")
}

// decodeMarks parses the "marks" meta value.
func decodeMarks(s string) ([]Mark, error) {
	if s == "" {
		return nil, nil
	}
	var out []Mark
	for _, part := range strings.Split(s, ";") {
		tsStr, label, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("trace: bad mark entry %q", part)
		}
		var ns int64
		if _, err := fmt.Sscanf(tsStr, "%d", &ns); err != nil {
			return nil, fmt.Errorf("trace: bad mark time %q: %w", tsStr, err)
		}
		out = append(out, Mark{Time: sim.Time(ns), Label: label})
	}
	return out, nil
}

// metaForWrite returns the metadata to serialize: Meta plus the encoded
// marks, without mutating the live trace.
func (t *Trace) metaForWrite() map[string]string {
	if len(t.Marks) == 0 {
		return t.Meta
	}
	m := make(map[string]string, len(t.Meta)+1)
	for k, v := range t.Meta {
		m[k] = v
	}
	m["marks"] = encodeMarks(t.Marks)
	return m
}

// adoptMarksMeta moves a decoded "marks" meta entry into t.Marks.
func (t *Trace) adoptMarksMeta() error {
	enc, ok := t.Meta["marks"]
	if !ok {
		return nil
	}
	marks, err := decodeMarks(enc)
	if err != nil {
		return err
	}
	t.Marks = marks
	delete(t.Meta, "marks")
	return nil
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{Meta: make(map[string]string)}
}

// collectorChunk is the capture granularity: packets are recorded into
// fixed-size columnar chunks so a million-packet capture never memmoves
// its whole history through append's doubling, and the tap's appends are
// in-place (allocation only once per chunk — or never, in streaming
// mode, where one chunk's backing arrays are recycled forever).
const collectorChunk = 16384

// Collector is a promiscuous capture session on a segment. Packets are
// accumulated in fixed-size columnar chunks; full chunks are folded into
// any attached Sinks and, when the collector retains (the default),
// linearized on demand by Trace. With SetRetain(false) the collector is
// a pure streaming tap: every packet flows through the sinks but the
// capture holds at most one chunk of memory, whatever the run length.
type Collector struct {
	tr      *Trace
	chunks  []*Chunk // filled chunks, in capture order (retain mode)
	cur     *Chunk   // chunk currently being filled
	sinks   []Sink
	retain  bool // keep chunks for Trace(); off = streaming only
	dirty   bool // packets captured since the last materialization
	enabled bool
	flushed bool
}

// NewCollector returns a detached collector (retaining, enabled); tests
// and offline replays drive record directly.
func NewCollector() *Collector {
	return &Collector{tr: New(), retain: true, enabled: true}
}

// Capture attaches a collector to a medium (shared segment or switch
// SPAN). It records from the start, as the paper started tcpdump before
// launching each program, until Flush.
func Capture(seg ethernet.TrafficSource) *Collector {
	c := NewCollector()
	seg.Tap(c.record)
	return c
}

// AddSink attaches a streaming consumer. Sinks must be attached before
// packets flow; a sink added mid-capture misses the chunks already
// rotated out.
func (c *Collector) AddSink(s Sink) { c.sinks = append(c.sinks, s) }

// SetRetain controls whether the collector keeps the captured packets
// for Trace. With retain off the collector recycles a single chunk and
// Trace returns only the session metadata (hosts, meta, marks) — the
// streaming-analysis mode, where the sinks are the only consumers. Must
// be set before packets flow.
func (c *Collector) SetRetain(on bool) { c.retain = on }

// record is the tap callback: a full-chunk rotation branch, then one
// bounds-checked append per column.
func (c *Collector) record(cp ethernet.Capture) {
	if !c.enabled {
		return
	}
	cur := c.cur
	if cur == nil || len(cur.Time) == cap(cur.Time) {
		cur = c.rotate()
	}
	dst := Broadcast
	if cp.Dst != ethernet.Broadcast {
		dst = MustAddr(cp.Dst)
	}
	cur.Time = append(cur.Time, cp.Time)
	cur.Size = append(cur.Size, uint16(cp.Size))
	cur.Src = append(cur.Src, MustAddr(cp.Src))
	cur.Dst = append(cur.Dst, dst)
	cur.Proto = append(cur.Proto, cp.Proto)
	cur.Flags = append(cur.Flags, cp.Flags)
	cur.SrcPort = append(cur.SrcPort, cp.SrcPort)
	cur.DstPort = append(cur.DstPort, cp.DstPort)
	c.dirty = true
}

// rotate folds the full current chunk into the sinks and produces an
// empty chunk to fill: a fresh allocation when retaining (the old chunk
// joins the history), the same backing arrays otherwise.
func (c *Collector) rotate() *Chunk {
	if c.cur != nil {
		c.emit(c.cur)
		if c.retain {
			c.chunks = append(c.chunks, c.cur)
			c.cur = nil
		}
	}
	if c.cur == nil {
		c.cur = NewChunk(collectorChunk)
	} else {
		c.cur.reset()
	}
	return c.cur
}

// emit folds one chunk into every sink.
func (c *Collector) emit(ch *Chunk) {
	for _, s := range c.sinks {
		s.Fold(ch)
	}
}

// Flush folds the partially filled current chunk into the sinks and
// stops capture: it is the end-of-capture barrier for streaming
// analyses. Each chunk reaches the sinks exactly once (full chunks at
// rotation, the tail here), so Flush must be called once, after the
// simulation has stopped. Trace remains callable afterwards.
func (c *Collector) Flush() {
	if c.flushed {
		return
	}
	c.flushed = true
	c.enabled = false
	if c.cur != nil && c.cur.Len() > 0 {
		c.emit(c.cur)
	}
}

// Trace returns the collected trace, linearizing any chunks captured
// since the last call into Packets with a single exact-size allocation
// (live; callers should stop the simulation before analyzing). A
// non-retaining collector returns the session metadata only — hosts,
// experiment parameters, marks — with no packets.
func (c *Collector) Trace() *Trace {
	if c.retain && c.dirty {
		total := 0
		for _, ch := range c.chunks {
			total += ch.Len()
		}
		if c.cur != nil {
			total += c.cur.Len()
		}
		if cap(c.tr.Packets) < total {
			c.tr.Packets = make([]Packet, 0, total)
		}
		c.tr.Packets = c.tr.Packets[:0]
		for _, ch := range c.chunks {
			c.tr.Packets = ch.appendTo(c.tr.Packets)
		}
		if c.cur != nil {
			c.tr.Packets = c.cur.appendTo(c.tr.Packets)
		}
		c.dirty = false
	}
	return c.tr
}

// Len reports the number of captured packets.
func (t *Trace) Len() int { return len(t.Packets) }

// Duration is the time between the first and last packet.
func (t *Trace) Duration() sim.Duration {
	if len(t.Packets) < 2 {
		return 0
	}
	return t.Packets[len(t.Packets)-1].Time.Sub(t.Packets[0].Time)
}

// TotalBytes sums captured sizes.
func (t *Trace) TotalBytes() int64 {
	var n int64
	for _, p := range t.Packets {
		n += int64(p.Size)
	}
	return n
}

// Filter returns a new trace containing the packets for which keep
// returns true. Metadata is shared.
func (t *Trace) Filter(keep func(Packet) bool) *Trace {
	out := &Trace{Hosts: t.Hosts, Meta: t.Meta, Marks: t.Marks}
	for _, p := range t.Packets {
		if keep(p) {
			out.Packets = append(out.Packets, p)
		}
	}
	return out
}

// Connection extracts the paper's per-connection trace: every packet sent
// from host src to host dst — message-passing TCP, daemon UDP, and the
// ACKs of the symmetric channel alike.
func (t *Trace) Connection(src, dst int) *Trace {
	return t.Filter(func(p Packet) bool {
		return int(p.Src) == src && int(p.Dst) == dst
	})
}

// Pairs returns the distinct (src, dst) pairs present, sorted.
func (t *Trace) Pairs() [][2]int {
	seen := make(map[[2]int]bool)
	for _, p := range t.Packets {
		seen[[2]int{int(p.Src), int(p.Dst)}] = true
	}
	out := make([][2]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// HostName renders a host address using the trace's host table.
func (t *Trace) HostName(addr int) string {
	if addr == int(Broadcast) {
		return "broadcast"
	}
	if addr >= 0 && addr < len(t.Hosts) {
		return t.Hosts[addr]
	}
	return fmt.Sprintf("host%d", addr)
}

// The binary trace format is versioned by its magic: v1 records carry
// 8-bit addresses (0xFF = broadcast), v2 records 16-bit addresses
// (0xFFFF = broadcast). WriteBinary emits the narrow v1 record whenever
// every address fits, so traces of small topologies — including every
// pre-existing golden trace — are byte-identical to what the v1-only
// codec produced; the wide record appears only when a trace actually
// contains an address above 0xFE. Readers accept both.
const (
	binaryMagic     = "FXTRACE1"
	binaryMagicWide = "FXTRACE2"
)

// narrowAddrs reports whether every packet address fits the v1 record:
// sources up to 0xFE, destinations up to 0xFE or broadcast (encoded as
// 0xFF).
func (t *Trace) narrowAddrs() bool {
	for i := range t.Packets {
		p := &t.Packets[i]
		if p.Src > 0xFE || (p.Dst > 0xFE && p.Dst != Broadcast) {
			return false
		}
	}
	return true
}

// WriteBinary serializes the trace in a compact little-endian format,
// choosing the narrowest record width that represents every address.
func (t *Trace) WriteBinary(w io.Writer) error {
	narrow := t.narrowAddrs()
	bw := bufio.NewWriter(w)
	magic := binaryMagicWide
	if narrow {
		magic = binaryMagic
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	writeStr := func(s string) error {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(t.Hosts))); err != nil {
		return err
	}
	for _, h := range t.Hosts {
		if err := writeStr(h); err != nil {
			return err
		}
	}
	meta := t.metaForWrite()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(meta))); err != nil {
		return err
	}
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := writeStr(k); err != nil {
			return err
		}
		if err := writeStr(meta[k]); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(t.Packets))); err != nil {
		return err
	}
	// Packets are encoded with direct byte packing rather than per-field
	// binary.Write: the record layout is fixed little-endian (18 bytes
	// narrow, 20 wide) and reflection per field dominates serialization
	// of million-packet traces.
	if narrow {
		var rec [packetRecBytes]byte
		for i := range t.Packets {
			p := &t.Packets[i]
			binary.LittleEndian.PutUint64(rec[0:], uint64(int64(p.Time)))
			binary.LittleEndian.PutUint16(rec[8:], p.Size)
			rec[10] = uint8(p.Src)
			rec[11] = uint8(p.Dst) // Broadcast = 0xFFFF truncates to the v1 broadcast 0xFF
			rec[12] = uint8(p.Proto)
			rec[13] = p.Flags
			binary.LittleEndian.PutUint16(rec[14:], p.SrcPort)
			binary.LittleEndian.PutUint16(rec[16:], p.DstPort)
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	} else {
		var rec [packetRecBytesWide]byte
		for i := range t.Packets {
			p := &t.Packets[i]
			binary.LittleEndian.PutUint64(rec[0:], uint64(int64(p.Time)))
			binary.LittleEndian.PutUint16(rec[8:], p.Size)
			binary.LittleEndian.PutUint16(rec[10:], p.Src)
			binary.LittleEndian.PutUint16(rec[12:], p.Dst)
			rec[14] = uint8(p.Proto)
			rec[15] = p.Flags
			binary.LittleEndian.PutUint16(rec[16:], p.SrcPort)
			binary.LittleEndian.PutUint16(rec[18:], p.DstPort)
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// packetRecBytes is the narrow (v1) on-disk record size: int64 time,
// uint16 size, four uint8s (src, dst, proto, flags), two uint16 ports.
// packetRecBytesWide is the v2 record, with uint16 src and dst.
const (
	packetRecBytes     = 18
	packetRecBytesWide = 20
)

// ReadBinary parses a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := New()
	t.Hosts = rd.Hosts()
	for k, v := range rd.Meta() {
		t.Meta[k] = v
	}
	t.Marks = rd.Marks()
	// Preallocate from the declared count, but bounded: the count is
	// untrusted input and must not be able to demand an arbitrary
	// allocation before a single record has been read. Past the bound the
	// slice doubles, capped at the declared count, rather than taking
	// append's 1.25× steps: a 1.5 M-record trace then costs one regrowth
	// straight to its final size, not a chain of copies.
	t.Packets = make([]Packet, 0, min(rd.Len(), 1<<20))
	var p Packet
	for {
		if err := rd.Next(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if n := len(t.Packets); n == cap(t.Packets) {
			grown := make([]Packet, n, min(rd.Len(), 2*n))
			copy(grown, t.Packets)
			t.Packets = grown
		}
		t.Packets = append(t.Packets, p)
	}
	return t, nil
}

// Reader streams packets out of the binary trace format without
// materializing the whole trace: the header (host table, metadata, marks,
// record count) is parsed eagerly by NewReader, and each Next call
// decodes exactly one fixed-size record. It is the service's chunked
// result streamer — a million-packet capture is relayed record by record
// in constant memory.
type Reader struct {
	br    *bufio.Reader
	hosts []string
	meta  map[string]string
	marks []Mark
	total uint64
	read  uint64
	last  sim.Time // timestamp of the previous record
	wide  bool     // v2 stream: 16-bit addresses
	// rec is Next's record buffer. A local one escapes through
	// io.ReadFull: one heap object per packet.
	rec [packetRecBytesWide]byte
}

// NewReader parses a binary-trace header from r and returns a streaming
// reader positioned at the first packet record.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	var wide bool
	switch string(magic) {
	case binaryMagic:
	case binaryMagicWide:
		wide = true
	default:
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	readStr := func() (string, error) {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("trace: string length %d too large", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	rd := &Reader{br: br, meta: make(map[string]string), wide: wide}
	var nHosts uint32
	if err := binary.Read(br, binary.LittleEndian, &nHosts); err != nil {
		return nil, err
	}
	if nHosts > 1<<16 {
		return nil, fmt.Errorf("trace: host count %d too large", nHosts)
	}
	for i := uint32(0); i < nHosts; i++ {
		h, err := readStr()
		if err != nil {
			return nil, err
		}
		rd.hosts = append(rd.hosts, h)
	}
	var nMeta uint32
	if err := binary.Read(br, binary.LittleEndian, &nMeta); err != nil {
		return nil, err
	}
	if nMeta > 1<<16 {
		return nil, fmt.Errorf("trace: meta count %d too large", nMeta)
	}
	for i := uint32(0); i < nMeta; i++ {
		k, err := readStr()
		if err != nil {
			return nil, err
		}
		v, err := readStr()
		if err != nil {
			return nil, err
		}
		rd.meta[k] = v
	}
	if enc, ok := rd.meta["marks"]; ok {
		marks, err := decodeMarks(enc)
		if err != nil {
			return nil, err
		}
		rd.marks = marks
		delete(rd.meta, "marks")
	}
	if err := binary.Read(br, binary.LittleEndian, &rd.total); err != nil {
		return nil, err
	}
	return rd, nil
}

// Hosts returns the trace's host table.
func (r *Reader) Hosts() []string { return r.hosts }

// Meta returns the trace's metadata (marks already extracted).
func (r *Reader) Meta() map[string]string { return r.meta }

// Marks returns the trace's time annotations.
func (r *Reader) Marks() []Mark { return r.marks }

// Len reports the total packet count the header declares.
func (r *Reader) Len() int { return int(r.total) }

// Next decodes one packet record into p. It returns io.EOF after the last
// declared record, io.ErrUnexpectedEOF if the stream ends early, and an
// error for a record stamped earlier than its predecessor: a capture is
// in time order, and every consumer — the windowed folds above all —
// indexes by time since the first packet.
func (r *Reader) Next(p *Packet) error {
	if r.read >= r.total {
		return io.EOF
	}
	rec := &r.rec
	n := packetRecBytes
	if r.wide {
		n = packetRecBytesWide
	}
	if _, err := io.ReadFull(r.br, rec[:n]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	r.read++
	at := sim.Time(int64(binary.LittleEndian.Uint64(rec[0:])))
	if r.read > 1 && at < r.last {
		return fmt.Errorf("trace: record %d: time goes backwards", r.read)
	}
	r.last = at
	if r.wide {
		*p = Packet{
			Time:    at,
			Size:    binary.LittleEndian.Uint16(rec[8:]),
			Src:     binary.LittleEndian.Uint16(rec[10:]),
			Dst:     binary.LittleEndian.Uint16(rec[12:]),
			Proto:   ethernet.Proto(rec[14]),
			Flags:   rec[15],
			SrcPort: binary.LittleEndian.Uint16(rec[16:]),
			DstPort: binary.LittleEndian.Uint16(rec[18:]),
		}
		return nil
	}
	dst := uint16(rec[11])
	if dst == 0xFF { // the v1 broadcast encoding
		dst = Broadcast
	}
	*p = Packet{
		Time:    at,
		Size:    binary.LittleEndian.Uint16(rec[8:]),
		Src:     uint16(rec[10]),
		Dst:     dst,
		Proto:   ethernet.Proto(rec[12]),
		Flags:   rec[13],
		SrcPort: binary.LittleEndian.Uint16(rec[14:]),
		DstPort: binary.LittleEndian.Uint16(rec[16:]),
	}
	return nil
}

// WriteText emits a human-readable tcpdump-style listing that ReadText
// can parse back losslessly: metadata and host-table comment lines, then
// one line per packet with nanosecond timestamps and the raw flag bits.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	meta := t.metaForWrite()
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(bw, "# %s=%s\n", k, meta[k]); err != nil {
			return err
		}
	}
	for i, h := range t.Hosts {
		if _, err := fmt.Fprintf(bw, "#host %d %s\n", i, h); err != nil {
			return err
		}
	}
	for _, p := range t.Packets {
		flag := ""
		if p.IsAck() {
			flag = " ack"
		}
		if _, err := fmt.Fprintf(bw, "%.9f %s.%d > %s.%d: %s %d flags=%d src=%d dst=%d%s\n",
			p.Time.Seconds(), t.HostName(int(p.Src)), p.SrcPort,
			t.HostName(int(p.Dst)), p.DstPort, p.Proto, p.Size,
			p.Flags, p.Src, p.Dst, flag); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace in either the binary or the text format,
// auto-detected from the leading bytes.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && (string(head) == binaryMagic || string(head) == binaryMagicWide) {
		return ReadBinary(br)
	}
	return ReadText(br)
}

// ReadText parses a listing written by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	t := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "#host "); ok {
			var idx int
			var name string
			if _, err := fmt.Sscanf(rest, "%d %s", &idx, &name); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad host entry: %w", lineNo, err)
			}
			for len(t.Hosts) <= idx {
				t.Hosts = append(t.Hosts, "")
			}
			t.Hosts[idx] = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			k, v, found := strings.Cut(rest, "=")
			if !found {
				return nil, fmt.Errorf("trace: line %d: bad meta entry %q", lineNo, rest)
			}
			t.Meta[k] = v
			continue
		}
		var (
			secs                   float64
			srcName, dstName, prot string
			size, flags, src, dst  int
		)
		fields := strings.Fields(line)
		if len(fields) < 9 {
			return nil, fmt.Errorf("trace: line %d: too few fields", lineNo)
		}
		if _, err := fmt.Sscanf(strings.Join(fields[:9], " "),
			"%f %s > %s %s %d flags=%d src=%d dst=%d",
			&secs, &srcName, &dstName, &prot, &size, &flags, &src, &dst); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		var srcPort, dstPort int
		if _, err := fmt.Sscanf(portOf(srcName), "%d", &srcPort); err != nil {
			return nil, fmt.Errorf("trace: line %d: bad source port: %w", lineNo, err)
		}
		if _, err := fmt.Sscanf(portOf(strings.TrimSuffix(dstName, ":")), "%d", &dstPort); err != nil {
			return nil, fmt.Errorf("trace: line %d: bad destination port: %w", lineNo, err)
		}
		srcAddr, err := Addr(src)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		var dstAddr uint16
		switch {
		case dst == int(Broadcast),
			// Listings written before addresses widened to 16 bits
			// rendered broadcast as the narrow escape value 255.
			dst == 0xFF && strings.HasPrefix(dstName, "broadcast."):
			dstAddr = Broadcast
		default:
			if dstAddr, err = Addr(dst); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
		}
		var proto ethernet.Proto
		switch prot {
		case "tcp":
			proto = ethernet.ProtoTCP
		case "udp":
			proto = ethernet.ProtoUDP
		case "other":
			proto = ethernet.ProtoOther
		default:
			return nil, fmt.Errorf("trace: line %d: unknown protocol %q", lineNo, prot)
		}
		at := sim.TimeOf(secs)
		if n := len(t.Packets); n > 0 && at < t.Packets[n-1].Time {
			return nil, fmt.Errorf("trace: line %d: time goes backwards", lineNo)
		}
		t.Packets = append(t.Packets, Packet{
			Time: at, Size: uint16(size),
			Src: srcAddr, Dst: dstAddr, Proto: proto, Flags: uint8(flags),
			SrcPort: uint16(srcPort), DstPort: uint16(dstPort),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.adoptMarksMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// portOf extracts the trailing .port of a host.port token.
func portOf(tok string) string {
	if i := strings.LastIndexByte(tok, '.'); i >= 0 {
		return tok[i+1:]
	}
	return tok
}
