package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"

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
	binary.Write(&buf, binary.LittleEndian, uint64(tr.Len()))
	var rec [18]byte
	for i := range tr.Len() {
		p := tr.At(i)
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
	tr := chunkTrace(2*collectorChunk+7, false)
	tr.Append(Packet{Time: sim.Time(1 << 40), Size: 60, Src: 3, Dst: Broadcast})
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
	tr := chunkTrace(12, false)
	tr.Append(Packet{Time: sim.Time(1 << 40), Size: 60, Src: 3, Dst: Broadcast})
	got, err := ReadBinary(bytes.NewReader(writeV1(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("decoded %d packets, want %d", got.Len(), tr.Len())
	}
	for i := range got.Len() {
		if got.At(i) != tr.At(i) {
			t.Fatalf("packet %d: got %+v want %+v", i, got.At(i), tr.At(i))
		}
	}
	if got.At(got.Len()-1).Dst != Broadcast {
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
		tr.Append(p)
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
	for i := range tr.Len() {
		if err := rd.Next(&p); err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if p != tr.At(i) {
			t.Fatalf("packet %d: got %+v want %+v", i, p, tr.At(i))
		}
	}
	if err := rd.Next(&p); err != io.EOF {
		t.Fatalf("Next past end: %v", err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("ReadBinary: %d packets, want %d", got.Len(), tr.Len())
	}
	for i := range got.Len() {
		if got.At(i) != tr.At(i) {
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
			tr.Append(p)
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
		tr.Append(p)
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
	tr := chunkTrace(10, false)
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
	tr := chunkTrace(collectorChunk+5, false)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("ReadBinary produced %d packets, want %d", got.Len(), tr.Len())
	}
	for i := range got.Len() {
		if got.At(i) != tr.At(i) {
			t.Fatalf("packet %d mismatch", i)
		}
	}
	if got.Meta["program"] != "synthetic" || len(got.Marks) != 1 {
		t.Fatalf("metadata mangled: meta=%v marks=%v", got.Meta, got.Marks)
	}
}

// TestReadBinaryAllocationBound: decoding allocates the trace's chunks
// and one block buffer, nothing else — no slice regrown on the way, no
// per-packet row beside the columns (wire_seq decodes 1.47 M packets).
func TestReadBinaryAllocationBound(t *testing.T) {
	const n = 1_500_000
	var buf bytes.Buffer
	func() {
		tr := New()
		for i := range n {
			tr.Append(synthPacket(i))
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
	if got.Len() != n || got.At(n-1) != synthPacket(n-1) {
		t.Fatalf("decoded %d packets, want %d intact", got.Len(), n)
	}
	const row = 8 + 2 + 2 + 2 + 1 + 1 + 2 + 2 // one packet across the eight columns
	limit := uint64(n*row + collectorChunk*packetRecBytes + 1<<16)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Errorf("ReadBinary of %d packets allocated %d bytes, want ≤ %d (N × %d B of columns + one block)", n, alloc, limit, row)
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
			tr.Append(Packet{Time: sim.Time(ns), Size: 100, Src: 0, Dst: 1, Proto: ethernet.ProtoTCP})
		}
		return tr
	}
	wide := func(tr *Trace) *Trace {
		tr.chunks[0].Src[0] = 1000
		return tr
	}
	// The first record of the second chunk dips below its predecessor.
	ramp := make([]int64, collectorChunk+1)
	for i := range ramp {
		ramp[i] = int64(i)
	}
	ramp[collectorChunk] = collectorChunk - 2
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
		{"across a chunk boundary", wide(at(ramp...)), fmt.Sprintf("record %d: time goes backwards", collectorChunk+1)},
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
	seedTrace := chunkTrace(20, false)
	var seed bytes.Buffer
	if err := seedTrace.WriteBinary(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// An old-codec stream with a broadcast record, a wide-record stream,
	// and a wide stream truncated mid-record: the corpus spans both
	// format versions and their failure edges.
	v1Trace := chunkTrace(5, false)
	v1Trace.Append(Packet{Time: 1 << 20, Size: 60, Src: 1, Dst: Broadcast})
	f.Add(writeV1(f, v1Trace))
	wideTrace := chunkTrace(5, false)
	wideTrace.Append(Packet{Time: 1 << 20, Size: 60, Src: 1000, Dst: 2000})
	var wideSeed bytes.Buffer
	if err := wideTrace.WriteBinary(&wideSeed); err != nil {
		f.Fatal(err)
	}
	f.Add(wideSeed.Bytes())
	f.Add(wideSeed.Bytes()[:wideSeed.Len()-packetRecBytesWide/2])
	// A well-formed stream whose last record is stamped before the one
	// ahead of it: the decoder must stop there with an error.
	backTrace := chunkTrace(5, false)
	backTrace.Append(Packet{Time: 99, Size: 60, Src: 1, Dst: 2})
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
			if n := first.Len(); n > 0 && p.Time < first.At(n-1).Time {
				t.Fatalf("record %d accepted at %v, before its predecessor at %v", n+1, p.Time, first.At(n-1).Time)
			}
			first.Append(p)
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
		if second.Len() != first.Len() {
			t.Fatalf("round-trip packet count %d != %d", second.Len(), first.Len())
		}
		for i := range second.Len() {
			if second.At(i) != first.At(i) {
				t.Fatalf("round-trip packet %d mismatch", i)
			}
		}
	})
}

// chunkTrace captures n synthetic packets through the collector's
// chunked record path, as a live capture does: wide (addresses past a
// byte, so the v2 record) or narrow.
func chunkTrace(n int, wide bool) *Trace {
	c := NewCollector()
	for i := 0; i < n; i++ {
		p := synthPacket(i)
		if wide {
			p.Src = uint16(1000 + i%1024)
		}
		c.record(captureOf(p))
	}
	t := c.Trace()
	t.Hosts = []string{"alpha0", "alpha1"}
	t.Meta["program"] = "synthetic"
	t.AddMark(sim.Time(5), "mark-a")
	return t
}

// growRecorder is a writer with bytes.Buffer's Grow; plainWriter hides
// it, so WriteBinary cannot pre-size.
type growRecorder struct {
	bytes.Buffer
	grows []int
}

func (g *growRecorder) Grow(n int) {
	g.grows = append(g.grows, n)
	g.Buffer.Grow(n)
}

type plainWriter struct{ w io.Writer }

func (p plainWriter) Write(b []byte) (int, error) { return p.w.Write(b) }

// TestReaderRoundTripChunkBoundaries: at every length that brackets a
// chunk boundary, narrow and wide, the collector's chunks encode to the
// same bytes through a pre-grown and a plain writer (grown once, to the
// exact length), decode through ReadBinary into full chunks but the
// last, and stream through Reader in 7-byte fragments, so records
// straddle every read boundary, header and packets intact; the decoded
// trace encodes back to the same bytes.
func TestReaderRoundTripChunkBoundaries(t *testing.T) {
	for _, wide := range []bool{false, true} {
		for _, n := range []int{0, 1, collectorChunk - 1, collectorChunk, collectorChunk + 1, 2*collectorChunk + 3} {
			tr := chunkTrace(n, wide)
			var grown growRecorder
			if err := tr.WriteBinary(&grown); err != nil {
				t.Fatal(err)
			}
			var plain bytes.Buffer
			if err := tr.WriteBinary(plainWriter{&plain}); err != nil {
				t.Fatal(err)
			}
			enc := grown.Bytes()
			if !bytes.Equal(enc, plain.Bytes()) {
				t.Fatalf("wide=%v n=%d: pre-grown and plain writers disagree", wide, n)
			}
			if len(grown.grows) != 1 || grown.grows[0] != len(enc) {
				t.Fatalf("wide=%v n=%d: Grow calls %v for %d encoded bytes", wide, n, grown.grows, len(enc))
			}
			if got := bytes.HasPrefix(enc, []byte(binaryMagicWide)); got != (wide && n > 0) { // no packet needs the wide record
				t.Fatalf("wide=%v n=%d: magic %q", wide, n, enc[:8])
			}

			got, err := ReadBinary(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("wide=%v n=%d: ReadBinary: %v", wide, n, err)
			}
			chunks := got.Chunks()
			if want := (n + collectorChunk - 1) / collectorChunk; len(chunks) != want {
				t.Fatalf("wide=%v n=%d: decoded into %d chunks, want %d", wide, n, len(chunks), want)
			}
			for i, ch := range chunks[:max(len(chunks)-1, 0)] {
				if ch.Len() != collectorChunk {
					t.Fatalf("wide=%v n=%d: chunk %d holds %d packets, not full", wide, n, i, ch.Len())
				}
			}
			rd, err := NewReader(&fragmentedReader{data: enc, frag: 7})
			if err != nil {
				t.Fatal(err)
			}
			if rd.Len() != n || len(rd.Hosts()) != 2 || rd.Meta()["program"] != "synthetic" ||
				len(rd.Marks()) != 1 || rd.Marks()[0].Label != "mark-a" {
				t.Fatalf("wide=%v n=%d: header mangled: len=%d hosts=%v meta=%v marks=%v",
					wide, n, rd.Len(), rd.Hosts(), rd.Meta(), rd.Marks())
			}
			var p Packet
			for i, want := range tr.Packets {
				if got.At(i) != want {
					t.Fatalf("wide=%v n=%d: ReadBinary packet %d: %+v, want %+v", wide, n, i, got.At(i), want)
				}
				if err := rd.Next(&p); err != nil || p != want {
					t.Fatalf("wide=%v n=%d: Next(%d) = %+v, %v; want %+v", wide, n, i, p, err, want)
				}
			}
			if err := rd.Next(&p); err != io.EOF {
				t.Fatalf("wide=%v n=%d: Next past end: %v", wide, n, err)
			}
			var again bytes.Buffer
			if err := got.WriteBinary(&again); err != nil || !bytes.Equal(again.Bytes(), enc) {
				t.Fatalf("wide=%v n=%d: decoded trace re-encodes differently (err %v)", wide, n, err)
			}
		}
	}
}

// TestCollectorTraceHandsOverChunks: Trace allocates nothing — no
// packet-sized buffer, no copy — and its chunks are the ones the
// collector filled and its sinks folded.
func TestCollectorTraceHandsOverChunks(t *testing.T) {
	c := NewCollector()
	var folded []*Chunk
	c.AddSink(sinkFunc(func(ch *Chunk) { folded = append(folded, ch) }))
	drive(c, 3*collectorChunk+17)
	c.Flush()
	if allocs := testing.AllocsPerRun(10, func() { c.Trace() }); allocs != 0 {
		t.Errorf("Trace allocates %v objects, want 0", allocs)
	}
	chunks := c.Trace().Chunks()
	if len(chunks) != len(folded) {
		t.Fatalf("trace holds %d chunks, sinks folded %d", len(chunks), len(folded))
	}
	for i := range chunks {
		if chunks[i] != folded[i] {
			t.Errorf("chunk %d is a copy, not the collector's", i)
		}
	}
}

type sinkFunc func(*Chunk)

func (f sinkFunc) Fold(ch *Chunk) { f(ch) }
