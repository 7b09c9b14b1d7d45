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
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"slices"
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

// Trace is an ordered sequence of captured packets with metadata. The
// packets are the capture's columnar chunks, every one full but the
// last, never copied into a per-packet form: read them with At, the
// Packets iterator or Chunks, add one with Append.
type Trace struct {
	chunks []*Chunk
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
	maps.Copy(m, t.Meta)
	m["marks"] = encodeMarks(t.Marks)
	return m
}

// takeMarks decodes and removes a decoded trace's "marks" meta entry.
func takeMarks(meta map[string]string) ([]Mark, error) {
	enc := meta["marks"]
	delete(meta, "marks")
	return decodeMarks(enc)
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
// become the chunks of the Trace itself. With SetRetain(false) the
// collector is a pure streaming tap: every packet flows through the
// sinks but the capture holds at most one chunk of memory, whatever the
// run length.
type Collector struct {
	tr      *Trace
	cur     *Chunk // chunk currently being filled (the trace's last when retaining)
	sinks   []Sink
	retain  bool // keep chunks in the Trace; off = streaming only
	flushed bool // capture has stopped
}

// NewCollector returns a detached collector (retaining, enabled); tests
// and offline replays drive record directly.
func NewCollector() *Collector {
	return &Collector{tr: New(), retain: true}
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
// in-place append per column.
func (c *Collector) record(cp ethernet.Capture) {
	if c.flushed {
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
	cur.append(Packet{Time: cp.Time, Size: uint16(cp.Size), Src: MustAddr(cp.Src), Dst: dst,
		Proto: cp.Proto, Flags: cp.Flags, SrcPort: cp.SrcPort, DstPort: cp.DstPort})
}

// rotate folds the full current chunk into the sinks and produces an
// empty chunk to fill: a fresh allocation appended to the trace when
// retaining (the full chunk stays in it), the same backing arrays
// otherwise.
func (c *Collector) rotate() *Chunk {
	if c.cur != nil {
		c.emit(c.cur)
	}
	if c.retain || c.cur == nil {
		c.cur = makeChunk(0, collectorChunk)
		if c.retain {
			c.tr.chunks = append(c.tr.chunks, c.cur)
		}
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
	if c.cur != nil && c.cur.Len() > 0 {
		c.emit(c.cur)
	}
}

// Trace returns the collected trace, whose chunks are the collector's
// own: nothing is copied, and a trace taken mid-capture keeps growing.
// A non-retaining collector's trace has the session metadata only —
// hosts, experiment parameters, marks — and no packets.
func (c *Collector) Trace() *Trace { return c.tr }

// FromPackets returns a trace holding ps, in order.
func FromPackets(ps []Packet) *Trace {
	t := New()
	for _, p := range ps {
		t.Append(p)
	}
	return t
}

// Len reports the number of captured packets: every chunk holds
// collectorChunk of them but the last.
func (t *Trace) Len() int {
	n := len(t.chunks)
	if n == 0 {
		return 0
	}
	return (n-1)*collectorChunk + t.chunks[n-1].Len()
}

// At returns packet i, in capture order.
func (t *Trace) At(i int) Packet {
	return t.chunks[i/collectorChunk].Packet(i % collectorChunk)
}

// Append adds p as the trace's last packet. A trace built packet by
// packet grows its last chunk by append, so a short trace stays small.
func (t *Trace) Append(p Packet) {
	n := len(t.chunks)
	if n == 0 || t.chunks[n-1].Len() == collectorChunk {
		t.chunks = append(t.chunks, &Chunk{})
		n++
	}
	t.chunks[n-1].append(p)
}

// Chunks returns the trace's packet storage, in capture order: every
// chunk holds collectorChunk packets but the last. A fold reads the
// columns directly; callers must not modify them.
func (t *Trace) Chunks() []*Chunk { return t.chunks }

// Packets yields every packet with its index, in capture order:
// for i, p := range t.Packets { … }.
func (t *Trace) Packets(yield func(int, Packet) bool) {
	i := 0
	for _, ch := range t.chunks {
		for j := range ch.Time {
			if !yield(i, ch.Packet(j)) {
				return
			}
			i++
		}
	}
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
			out.Append(p)
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
	return slices.SortedFunc(maps.Keys(seen), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
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
	for _, ch := range t.chunks {
		for i, src := range ch.Src {
			if dst := ch.Dst[i]; src > 0xFE || (dst > 0xFE && dst != Broadcast) {
				return false
			}
		}
	}
	return true
}

// header renders everything a binary trace carries before its records:
// magic, host table, metadata (marks included, keys sorted) and the
// record count.
func (t *Trace) header(magic string, n int) []byte {
	b := []byte(magic)
	appendStr := func(s string) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Hosts)))
	for _, h := range t.Hosts {
		appendStr(h)
	}
	meta := t.metaForWrite()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(meta)))
	for _, k := range slices.Sorted(maps.Keys(meta)) {
		appendStr(k)
		appendStr(meta[k])
	}
	return binary.LittleEndian.AppendUint64(b, uint64(n))
}

// WriteBinary serializes the trace in a compact little-endian format,
// choosing the narrowest record width that represents every address,
// one block of records per chunk. A writer with a Grow method
// (bytes.Buffer) is first grown to the exact encoded length.
func (t *Trace) WriteBinary(w io.Writer) error {
	narrow := t.narrowAddrs()
	magic, recLen := binaryMagicWide, packetRecBytesWide
	if narrow {
		magic, recLen = binaryMagic, packetRecBytes
	}
	n := t.Len()
	head := t.header(magic, n)
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(len(head) + n*recLen)
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	block := make([]byte, 0, min(n, collectorChunk)*recLen)
	for _, ch := range t.chunks {
		if _, err := w.Write(ch.encode(block, narrow)); err != nil {
			return err
		}
	}
	return nil
}

// packetRecBytes is the narrow (v1) on-disk record size: int64 time,
// uint16 size, four uint8s (src, dst, proto, flags), two uint16 ports.
// packetRecBytesWide is the v2 record, with uint16 src and dst.
const (
	packetRecBytes     = 18
	packetRecBytesWide = 20
)

// ReadBinary parses a trace written by WriteBinary, decoding a block of
// up to collectorChunk records at a time into a chunk with Reader.Next's
// decoder. The declared count is untrusted, so nothing is allocated
// ahead of the bytes read but one block buffer.
func ReadBinary(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Hosts: rd.hosts, Meta: rd.meta, Marks: rd.marks}
	block := make([]byte, int(min(rd.total, collectorChunk))*rd.recLen)
	for rd.read < rd.total {
		got, err := io.ReadFull(rd.br, block[:int(min(rd.total-rd.read, collectorChunk))*rd.recLen])
		ch := makeChunk(got/rd.recLen, got/rd.recLen)
		if derr := rd.decode(ch, block); derr != nil {
			return nil, derr
		}
		if err != nil {
			return nil, unexpected(err)
		}
		t.chunks = append(t.chunks, ch)
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
	br     *bufio.Reader
	hosts  []string
	meta   map[string]string
	marks  []Mark
	total  uint64
	read   uint64
	last   sim.Time // timestamp of the previous record
	wide   bool     // v2 stream: 16-bit addresses
	recLen int      // bytes per record: packetRecBytes or packetRecBytesWide
	// rec and row are Next's record buffer and the one-row chunk it
	// decodes into. A local buffer escapes through io.ReadFull: one heap
	// object per packet.
	rec [packetRecBytesWide]byte
	row *Chunk
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
	rd := &Reader{br: br, meta: make(map[string]string), recLen: packetRecBytes, row: makeChunk(1, 1)}
	switch string(magic) {
	case binaryMagic:
	case binaryMagicWide:
		rd.wide, rd.recLen = true, packetRecBytesWide
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
	var err error
	if rd.marks, err = takeMarks(rd.meta); err != nil {
		return nil, err
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
	rec := r.rec[:r.recLen]
	if _, err := io.ReadFull(r.br, rec); err != nil {
		return unexpected(err)
	}
	if err := r.decode(r.row, rec); err != nil {
		return err
	}
	*p = r.row.Packet(0)
	return nil
}

// unexpected maps a read that ended before the declared records did to
// io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decode is the one record decoder, shared by ReadBinary (a block at a
// time) and Next (one record): it fills every row of ch from b, which
// holds at least ch.Len() records of the reader's width, and refuses a
// record stamped earlier than its predecessor.
func (r *Reader) decode(ch *Chunk, b []byte) error {
	le := binary.LittleEndian
	n := len(ch.Time) // columns resliced to one length: no bounds checks below
	size, src, dst, proto := ch.Size[:n], ch.Src[:n], ch.Dst[:n], ch.Proto[:n]
	flags, sport, dport := ch.Flags[:n], ch.SrcPort[:n], ch.DstPort[:n]
	m, wide := r.recLen, r.wide
	for i := range ch.Time {
		rec := b[i*m : (i+1)*m]
		r.read++
		at := sim.Time(int64(le.Uint64(rec)))
		if r.read > 1 && at < r.last {
			return fmt.Errorf("trace: record %d: time goes backwards", r.read)
		}
		r.last = at
		ch.Time[i], size[i] = at, le.Uint16(rec[8:])
		tail := rec[14:] // proto, flags, ports follow the addresses
		if wide {
			src[i], dst[i] = le.Uint16(rec[10:]), le.Uint16(rec[12:])
		} else {
			src[i], dst[i], tail = uint16(rec[10]), uint16(rec[11]), rec[12:]
			if dst[i] == 0xFF { // the v1 broadcast encoding
				dst[i] = Broadcast
			}
		}
		proto[i], flags[i] = ethernet.Proto(tail[0]), tail[1]
		sport[i], dport[i] = le.Uint16(tail[2:]), le.Uint16(tail[4:])
	}
	return nil
}

// WriteText emits a human-readable tcpdump-style listing that ReadText
// can parse back losslessly: metadata and host-table comment lines, then
// one line per packet with nanosecond timestamps and the raw flag bits.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	meta := t.metaForWrite()
	for _, k := range slices.Sorted(maps.Keys(meta)) {
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
	var last sim.Time
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
		if t.chunks != nil && at < last {
			return nil, fmt.Errorf("trace: line %d: time goes backwards", lineNo)
		}
		last = at
		t.Append(Packet{
			Time: at, Size: uint16(size),
			Src: srcAddr, Dst: dstAddr, Proto: proto, Flags: uint8(flags),
			SrcPort: uint16(srcPort), DstPort: uint16(dstPort),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var err error
	if t.Marks, err = takeMarks(t.Meta); err != nil {
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
