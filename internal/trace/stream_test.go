package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// synthPacket builds a deterministic pseudo-random packet from an index,
// exercising every field of the record layout.
func synthPacket(i int) Packet {
	return Packet{
		Time:    sim.Time(int64(i)*7919 + 13),
		Size:    uint16(64 + i%1455),
		Src:     uint16(i % 9),
		Dst:     uint16((i + 3) % 9),
		Proto:   ethernet.Proto(i % 3),
		Flags:   uint8(i % 4),
		SrcPort: uint16(1024 + i%5000),
		DstPort: uint16(2048 + i%5000),
	}
}

// captureThroughCollector drives n packets through the collector's
// chunked record path, so the resulting trace has crossed the columnar
// chunk boundary the same way a live capture does.
func captureThroughCollector(n int) *Trace {
	c := NewCollector()
	for i := 0; i < n; i++ {
		p := synthPacket(i)
		c.record(ethernet.Capture{
			Time: p.Time, Size: int(p.Size), Src: int(p.Src), Dst: int(p.Dst),
			Proto: p.Proto, Flags: p.Flags, SrcPort: p.SrcPort, DstPort: p.DstPort,
		})
	}
	t := c.Trace()
	t.Hosts = []string{"alpha0", "alpha1"}
	t.Meta["program"] = "synthetic"
	t.AddMark(sim.Time(5), "mark-a")
	return t
}

// fragmentedReader returns data in fixed odd-sized fragments, so packet
// records straddle every read boundary.
type fragmentedReader struct {
	data []byte
	frag int
}

func (r *fragmentedReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(r.frag, min(len(p), len(r.data)))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestReaderRoundTripChunkBoundaries round-trips traces whose lengths
// bracket the collector's chunk size through WriteBinary and the
// streaming Reader, delivering the bytes in 7-byte fragments so records
// straddle both the columnar chunk boundary and every read boundary.
func TestReaderRoundTripChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, collectorChunk - 1, collectorChunk, collectorChunk + 1, 2*collectorChunk + 3} {
		tr := captureThroughCollector(n)
		if len(tr.Packets) != n {
			t.Fatalf("n=%d: collector produced %d packets", n, len(tr.Packets))
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		rd, err := NewReader(&fragmentedReader{data: buf.Bytes(), frag: 7})
		if err != nil {
			t.Fatalf("n=%d: NewReader: %v", n, err)
		}
		if rd.Len() != n {
			t.Fatalf("n=%d: reader declares %d packets", n, rd.Len())
		}
		if len(rd.Hosts()) != 2 || rd.Meta()["program"] != "synthetic" {
			t.Fatalf("n=%d: header mangled: hosts=%v meta=%v", n, rd.Hosts(), rd.Meta())
		}
		if len(rd.Marks()) != 1 || rd.Marks()[0].Label != "mark-a" {
			t.Fatalf("n=%d: marks mangled: %v", n, rd.Marks())
		}
		var p Packet
		for i := 0; i < n; i++ {
			if err := rd.Next(&p); err != nil {
				t.Fatalf("n=%d: Next(%d): %v", n, i, err)
			}
			if p != tr.Packets[i] {
				t.Fatalf("n=%d: packet %d mismatch: got %+v want %+v", n, i, p, tr.Packets[i])
			}
		}
		if err := rd.Next(&p); err != io.EOF {
			t.Fatalf("n=%d: Next past end: %v, want io.EOF", n, err)
		}
	}
}

// writeV1 encodes a trace exactly as the pre-widening codec did: the
// FXTRACE1 magic and 18-byte records with one-byte addresses, broadcast
// as 0xFF. It is the reference against which the current writer's
// narrow mode must stay byte-identical, so every golden digest pinned
// before addresses widened remains valid.
func writeV1(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("FXTRACE1")
	writeStr := func(s string) {
		binary.Write(&buf, binary.LittleEndian, uint32(len(s)))
		buf.WriteString(s)
	}
	binary.Write(&buf, binary.LittleEndian, uint32(len(tr.Hosts)))
	for _, h := range tr.Hosts {
		writeStr(h)
	}
	meta := tr.metaForWrite()
	binary.Write(&buf, binary.LittleEndian, uint32(len(meta)))
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeStr(k)
		writeStr(meta[k])
	}
	binary.Write(&buf, binary.LittleEndian, uint64(len(tr.Packets)))
	var rec [18]byte
	for i := range tr.Packets {
		p := &tr.Packets[i]
		binary.LittleEndian.PutUint64(rec[0:], uint64(int64(p.Time)))
		binary.LittleEndian.PutUint16(rec[8:], p.Size)
		rec[10] = uint8(p.Src)
		rec[11] = uint8(p.Dst) // Broadcast truncates to the v1 0xFF
		rec[12] = uint8(p.Proto)
		rec[13] = p.Flags
		binary.LittleEndian.PutUint16(rec[14:], p.SrcPort)
		binary.LittleEndian.PutUint16(rec[16:], p.DstPort)
		buf.Write(rec[:])
	}
	return buf.Bytes()
}

// TestNarrowEncodeMatchesV1ByteForByte: a trace whose addresses all fit
// a byte — every trace the repo produced before addresses widened —
// must encode to the exact bytes the old codec wrote. This is the
// golden-digest compatibility contract of the versioned codec.
func TestNarrowEncodeMatchesV1ByteForByte(t *testing.T) {
	tr := captureThroughCollector(2*collectorChunk + 7)
	tr.Packets = append(tr.Packets, Packet{Time: sim.Time(1 << 40), Size: 60, Src: 3, Dst: Broadcast})
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), writeV1(t, tr)) {
		t.Fatal("narrow encoding diverged from the v1 byte stream")
	}
}

// TestV1StreamDecodes: byte streams written by the old codec decode
// through the versioned reader, with the 0xFF destination surfacing as
// the widened Broadcast address.
func TestV1StreamDecodes(t *testing.T) {
	tr := captureThroughCollector(12)
	tr.Packets = append(tr.Packets, Packet{Time: sim.Time(1 << 40), Size: 60, Src: 3, Dst: Broadcast})
	got, err := ReadBinary(bytes.NewReader(writeV1(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != len(tr.Packets) {
		t.Fatalf("decoded %d packets, want %d", len(got.Packets), len(tr.Packets))
	}
	for i := range got.Packets {
		if got.Packets[i] != tr.Packets[i] {
			t.Fatalf("packet %d: got %+v want %+v", i, got.Packets[i], tr.Packets[i])
		}
	}
	if got.Packets[len(got.Packets)-1].Dst != Broadcast {
		t.Fatal("v1 broadcast byte did not widen to Broadcast")
	}
}

// TestWideAddressRoundTrip: a trace with addresses beyond one byte must
// switch to the wide record and round-trip exactly, through both the
// streaming reader and the materializing decoder, including a broadcast
// destination and fragmented reads.
func TestWideAddressRoundTrip(t *testing.T) {
	tr := New()
	tr.Hosts = []string{"h0"}
	tr.Meta["program"] = "wide"
	for i := 0; i < 3*collectorChunk/2; i++ {
		p := synthPacket(i)
		p.Src = uint16(i % 1024)
		p.Dst = uint16((i + 511) % 1024)
		if i%97 == 0 {
			p.Dst = Broadcast
		}
		tr.Packets = append(tr.Packets, p)
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(binaryMagicWide)) {
		t.Fatalf("wide-address trace wrote magic %q", buf.Bytes()[:8])
	}
	rd, err := NewReader(&fragmentedReader{data: buf.Bytes(), frag: 7})
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	for i := range tr.Packets {
		if err := rd.Next(&p); err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if p != tr.Packets[i] {
			t.Fatalf("packet %d: got %+v want %+v", i, p, tr.Packets[i])
		}
	}
	if err := rd.Next(&p); err != io.EOF {
		t.Fatalf("Next past end: %v", err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != len(tr.Packets) {
		t.Fatalf("ReadBinary: %d packets, want %d", len(got.Packets), len(tr.Packets))
	}
	for i := range got.Packets {
		if got.Packets[i] != tr.Packets[i] {
			t.Fatalf("ReadBinary packet %d mismatch", i)
		}
	}
}

// TestReaderNextAllocatesNothing: decoding a record costs no heap object,
// narrow or wide — a million-packet decode is a million fewer.
func TestReaderNextAllocatesNothing(t *testing.T) {
	const runs = 100
	for _, wide := range []bool{false, true} {
		tr := New()
		for i := 0; i <= runs; i++ { // AllocsPerRun calls once more to warm up
			p := synthPacket(i)
			if wide {
				p.Src = 500
			}
			tr.Packets = append(tr.Packets, p)
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if rd.wide != wide {
			t.Fatalf("wide=%v: reader decodes wide=%v", wide, rd.wide)
		}
		var p Packet
		allocs := testing.AllocsPerRun(runs, func() {
			if err := rd.Next(&p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("wide=%v: Next allocates %v objects per record, want 0", wide, allocs)
		}
	}
}

// TestReaderTruncationWide: a wide stream cut mid-record must surface
// io.ErrUnexpectedEOF like the narrow one.
func TestReaderTruncationWide(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		p := synthPacket(i)
		p.Src = 500
		tr.Packets = append(tr.Packets, p)
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-packetRecBytesWide/2]
	rd, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	var lastErr error
	for i := 0; i < 10; i++ {
		if lastErr = rd.Next(&p); lastErr != nil {
			break
		}
	}
	if lastErr != io.ErrUnexpectedEOF {
		t.Fatalf("truncated wide stream produced %v, want io.ErrUnexpectedEOF", lastErr)
	}
}

// TestReaderTruncation: a stream that ends mid-record must surface
// io.ErrUnexpectedEOF, not a silent short trace.
func TestReaderTruncation(t *testing.T) {
	tr := captureThroughCollector(10)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-packetRecBytes/2]
	rd, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	var lastErr error
	for i := 0; i < 10; i++ {
		if lastErr = rd.Next(&p); lastErr != nil {
			break
		}
	}
	if lastErr != io.ErrUnexpectedEOF {
		t.Fatalf("truncated stream produced %v, want io.ErrUnexpectedEOF", lastErr)
	}
}

// TestReadBinaryMatchesReader: the materializing decoder is a thin loop
// over the streaming one; the two must agree exactly.
func TestReadBinaryMatchesReader(t *testing.T) {
	tr := captureThroughCollector(collectorChunk + 5)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != len(tr.Packets) {
		t.Fatalf("ReadBinary produced %d packets, want %d", len(got.Packets), len(tr.Packets))
	}
	for i := range got.Packets {
		if got.Packets[i] != tr.Packets[i] {
			t.Fatalf("packet %d mismatch", i)
		}
	}
	if got.Meta["program"] != "synthetic" || len(got.Marks) != 1 {
		t.Fatalf("metadata mangled: meta=%v marks=%v", got.Meta, got.Marks)
	}
}

// TestReadBinaryAllocationBound: decoding a trace past the
// preallocation bound costs one regrowth to the declared count, not
// append's chain of 1.25× copies, which at this size (wire_seq decodes
// 1.47 M packets) allocate about 2.7× the final slice.
func TestReadBinaryAllocationBound(t *testing.T) {
	const n = 1_500_000
	var buf bytes.Buffer
	func() {
		tr := New()
		tr.Packets = make([]Packet, n)
		for i := range tr.Packets {
			tr.Packets[i] = synthPacket(i)
		}
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != n || got.Packets[n-1] != synthPacket(n-1) {
		t.Fatalf("decoded %d packets, want %d intact", len(got.Packets), n)
	}
	limit := 2 * n * uint64(unsafe.Sizeof(Packet{}))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Errorf("ReadBinary of %d packets allocated %d bytes, want ≤ %d (2 × N × sizeof(Packet))", n, alloc, limit)
	}
}

// TestTimeGoesBackwards: a record stamped earlier than its predecessor
// is refused by every decoder — Reader.Next (and so ReadBinary, fxnetd's
// streamer and fxanalyze), in both record widths, and ReadText — with
// the offending record named. The two-packet case is the reproducer that
// used to panic fxanalyze (a negative window index in the bandwidth
// fold); equal timestamps are order, not an error.
func TestTimeGoesBackwards(t *testing.T) {
	at := func(times ...int64) *Trace {
		tr := New()
		for _, ns := range times {
			tr.Packets = append(tr.Packets, Packet{Time: sim.Time(ns), Size: 100, Src: 0, Dst: 1, Proto: ethernet.ProtoTCP})
		}
		return tr
	}
	wide := func(tr *Trace) *Trace {
		tr.Packets[0].Src = 1000
		return tr
	}
	for _, c := range []struct {
		name    string
		tr      *Trace
		wantErr string // "" = must decode
	}{
		{"reproducer", at(2_000_000_000, 1_000_000_000), "record 2: time goes backwards"},
		{"wide", wide(at(5, 9, 8)), "record 3: time goes backwards"},
		{"negative start", at(-50, -20, 0, 7), ""},
		{"equal", at(3, 3, 3), ""},
		{"late dip", at(1, 2, 3, 4, 3), "record 5: time goes backwards"},
	} {
		var bin bytes.Buffer
		if err := c.tr.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		_, binErr := ReadBinary(bytes.NewReader(bin.Bytes()))
		var text bytes.Buffer
		if err := c.tr.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		_, textErr := ReadText(bytes.NewReader(text.Bytes()))
		if c.wantErr == "" {
			if binErr != nil || textErr != nil {
				t.Errorf("%s: ReadBinary %v, ReadText %v, want both to decode", c.name, binErr, textErr)
			}
			continue
		}
		if want := "trace: " + c.wantErr; binErr == nil || binErr.Error() != want {
			t.Errorf("%s: ReadBinary error %v, want %q", c.name, binErr, want)
		}
		if textErr == nil || !strings.HasSuffix(textErr.Error(), ": time goes backwards") {
			t.Errorf("%s: ReadText error %v, want a time-goes-backwards error", c.name, textErr)
		}
	}
}

// FuzzReader throws arbitrary bytes at the streaming decoder: it must
// never panic or over-allocate, it must refuse a record stamped earlier
// than its predecessor rather than hand it on, and any stream it fully
// accepts must re-encode to a trace that decodes identically (the
// decoder is a function, not a guesser).
func FuzzReader(f *testing.F) {
	seedTrace := captureThroughCollector(20)
	var seed bytes.Buffer
	if err := seedTrace.WriteBinary(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// An old-codec stream with a broadcast record, a wide-record stream,
	// and a wide stream truncated mid-record: the corpus spans both
	// format versions and their failure edges.
	v1Trace := captureThroughCollector(5)
	v1Trace.Packets = append(v1Trace.Packets, Packet{Time: 1 << 20, Size: 60, Src: 1, Dst: Broadcast})
	f.Add(writeV1(f, v1Trace))
	wideTrace := captureThroughCollector(5)
	wideTrace.Packets = append(wideTrace.Packets, Packet{Time: 1 << 20, Size: 60, Src: 1000, Dst: 2000})
	var wideSeed bytes.Buffer
	if err := wideTrace.WriteBinary(&wideSeed); err != nil {
		f.Fatal(err)
	}
	f.Add(wideSeed.Bytes())
	f.Add(wideSeed.Bytes()[:wideSeed.Len()-packetRecBytesWide/2])
	// A well-formed stream whose last record is stamped before the one
	// ahead of it: the decoder must stop there with an error.
	backTrace := captureThroughCollector(5)
	backTrace.Packets = append(backTrace.Packets, Packet{Time: 99, Size: 60, Src: 1, Dst: 2})
	var backSeed bytes.Buffer
	if err := backTrace.WriteBinary(&backSeed); err != nil {
		f.Fatal(err)
	}
	f.Add(backSeed.Bytes())
	f.Add([]byte(binaryMagic))
	f.Add([]byte(binaryMagicWide))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := New()
		first.Hosts = rd.Hosts()
		for k, v := range rd.Meta() {
			first.Meta[k] = v
		}
		first.Marks = rd.Marks()
		var p Packet
		for {
			if err := rd.Next(&p); err != nil {
				if err != io.EOF {
					return // damaged body: fine, just no panic
				}
				break
			}
			if n := len(first.Packets); n > 0 && p.Time < first.Packets[n-1].Time {
				t.Fatalf("record %d accepted at %v, before its predecessor at %v", n+1, p.Time, first.Packets[n-1].Time)
			}
			first.Packets = append(first.Packets, p)
		}
		// Accepted stream: must round-trip exactly.
		var buf bytes.Buffer
		if err := first.WriteBinary(&buf); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		second, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of accepted stream failed: %v", err)
		}
		if len(second.Packets) != len(first.Packets) {
			t.Fatalf("round-trip packet count %d != %d", len(second.Packets), len(first.Packets))
		}
		for i := range second.Packets {
			if second.Packets[i] != first.Packets[i] {
				t.Fatalf("round-trip packet %d mismatch", i)
			}
		}
	})
}
