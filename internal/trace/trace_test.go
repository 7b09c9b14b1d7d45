package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

func pkt(tMs int, size int, src, dst int, proto ethernet.Proto, flags uint8) Packet {
	return Packet{
		Time: sim.Time(sim.Duration(tMs) * sim.Millisecond), Size: uint16(size),
		Src: uint16(src), Dst: uint16(dst), Proto: proto, Flags: flags,
	}
}

func sampleTrace() *Trace {
	t := FromPackets([]Packet{
		pkt(0, 1518, 0, 1, ethernet.ProtoTCP, ethernet.FlagData),
		pkt(1, 58, 1, 0, ethernet.ProtoTCP, ethernet.FlagAck),
		pkt(5, 90, 0, 2, ethernet.ProtoUDP, ethernet.FlagData),
		pkt(12, 600, 2, 1, ethernet.ProtoTCP, ethernet.FlagData),
		pkt(20, 58, 1, 2, ethernet.ProtoTCP, ethernet.FlagAck),
	})
	t.Hosts = []string{"alpha0", "alpha1", "alpha2"}
	t.Meta["program"] = "sor"
	return t
}

func TestTraceSummaries(t *testing.T) {
	tr := sampleTrace()
	if tr.Len() != 5 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.TotalBytes(); got != 1518+58+90+600+58 {
		t.Errorf("TotalBytes = %d", got)
	}
}

func TestIsAck(t *testing.T) {
	tr := sampleTrace()
	if tr.At(0).IsAck() {
		t.Error("data packet classified as ACK")
	}
	if !tr.At(1).IsAck() {
		t.Error("ACK not classified")
	}
	if tr.At(2).IsAck() {
		t.Error("UDP classified as ACK")
	}
}

func TestConnectionFilter(t *testing.T) {
	tr := sampleTrace()
	conn := tr.Connection(1, 0)
	if conn.Len() != 1 || !conn.At(0).IsAck() {
		t.Errorf("connection 1→0 = %d packets", conn.Len())
	}
	// Connection extraction keeps all protocols from src to dst.
	if got := tr.Connection(0, 2).Len(); got != 1 {
		t.Errorf("connection 0→2 = %d packets", got)
	}
}

func TestPairs(t *testing.T) {
	tr := sampleTrace()
	pairs := tr.Pairs()
	want := [][2]int{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 1}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Errorf("pairs[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
}

func TestCaptureFromSegment(t *testing.T) {
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	a := seg.Attach("a")
	b := seg.Attach("b")
	b.OnReceive(func(f *ethernet.Frame) {})
	col := Capture(seg)
	a.Send(&ethernet.Frame{Dst: 1, Proto: ethernet.ProtoTCP, NetLen: 100, Flags: ethernet.FlagData})
	k.Run()
	tr := col.Trace()
	if tr.Len() != 1 || tr.At(0).Size != 118 || tr.At(0).Src != 0 || tr.At(0).Dst != 1 {
		t.Errorf("trace = %+v", tr.At(0))
	}
}

func TestCaptureStopsAtFlush(t *testing.T) {
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	a := seg.Attach("a")
	seg.Attach("b").OnReceive(func(f *ethernet.Frame) {})
	col := Capture(seg)
	a.Send(&ethernet.Frame{Dst: 1, NetLen: 100})
	k.Run()
	if col.Trace().Len() != 1 {
		t.Error("did not capture before Flush")
	}
	col.Flush()
	a.Send(&ethernet.Frame{Dst: 1, NetLen: 100})
	k.Run()
	if col.Trace().Len() != 1 {
		t.Error("captured after Flush")
	}
}

func TestCaptureBroadcastAddress(t *testing.T) {
	k := sim.New(1)
	seg := ethernet.NewSegment(k, 0)
	a := seg.Attach("a")
	seg.Attach("b")
	col := Capture(seg)
	a.Send(&ethernet.Frame{Dst: ethernet.Broadcast, NetLen: 50})
	k.Run()
	if got := col.Trace().At(0).Dst; got != Broadcast {
		t.Errorf("broadcast dst = %d, want %d", got, Broadcast)
	}
	if name := col.Trace().HostName(int(Broadcast)); name != "broadcast" {
		t.Errorf("HostName(Broadcast) = %q", name)
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len %d vs %d", got.Len(), tr.Len())
	}
	for i := range tr.Len() {
		if got.At(i) != tr.At(i) {
			t.Errorf("packet %d: %+v vs %+v", i, got.At(i), tr.At(i))
		}
	}
	if len(got.Hosts) != 3 || got.Hosts[2] != "alpha2" {
		t.Errorf("hosts = %v", got.Hosts)
	}
	if got.Meta["program"] != "sor" {
		t.Errorf("meta = %v", got.Meta)
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTATRACE")); err == nil {
		t.Error("no error on bad magic")
	}
}

// TestReadBinaryTruncated: the block decoder keeps Next's refusal of a
// short stream. Cut mid-record, at a chunk boundary or before the first
// record, narrow and wide, ReadBinary returns io.ErrUnexpectedEOF.
func TestReadBinaryTruncated(t *testing.T) {
	for _, wide := range []bool{false, true} {
		const n = collectorChunk + 5
		var buf bytes.Buffer
		if err := chunkTrace(n, wide).WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		rec := packetRecBytes
		if wide {
			rec = packetRecBytesWide
		}
		body := buf.Len() - n*rec
		for name, cut := range map[string]int{
			"mid-record":     buf.Len() - rec/2,
			"chunk boundary": body + collectorChunk*rec,
			"no records":     body,
		} {
			if _, err := ReadBinary(bytes.NewReader(buf.Bytes()[:cut])); err != io.ErrUnexpectedEOF {
				t.Errorf("wide=%v %s: ReadBinary error %v, want io.ErrUnexpectedEOF", wide, name, err)
			}
		}
	}
}

func TestWriteText(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# program=sor") {
		t.Error("missing meta header")
	}
	if !strings.Contains(out, "alpha0.0 > alpha1.0: tcp 1518") {
		t.Errorf("missing data line in:\n%s", out)
	}
	if !strings.Contains(out, "#host 0 alpha0") {
		t.Error("missing host table")
	}
	if !strings.Contains(out, "ack") {
		t.Error("ACK flag not rendered")
	}
}

func TestQuickBinaryRoundtripPreservesPackets(t *testing.T) {
	f := func(times []uint32, sizes []uint16) bool {
		n := len(times)
		if len(sizes) < n {
			n = len(sizes)
		}
		tr := New()
		last := sim.Time(0)
		for i := 0; i < n; i++ {
			last += sim.Time(times[i])
			tr.Append(Packet{Time: last, Size: sizes[i], Src: uint16(i), Dst: uint16(i + 1)})
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil || got.Len() != n {
			return false
		}
		for i := range tr.Len() {
			if got.At(i) != tr.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTextRoundtrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("len %d vs %d", got.Len(), tr.Len())
	}
	for i := range tr.Len() {
		if got.At(i) != tr.At(i) {
			t.Errorf("packet %d: %+v vs %+v", i, got.At(i), tr.At(i))
		}
	}
	if len(got.Hosts) != 3 || got.Hosts[1] != "alpha1" {
		t.Errorf("hosts = %v", got.Hosts)
	}
	if got.Meta["program"] != "sor" {
		t.Errorf("meta = %v", got.Meta)
	}
}

// Read picks the decoder from the leading bytes: the v1 and v2 binary
// magics (a wide address selects FXTRACE2, which must not fall back to
// the text parser) and the text listing.
func TestReadDetectsFormat(t *testing.T) {
	wide := sampleTrace()
	wide.chunks[0].Dst[0] = 1000
	for _, tc := range []struct {
		name string
		tr   *Trace
		text bool
		head string
	}{
		{"FXTRACE1", sampleTrace(), false, binaryMagic},
		{"FXTRACE2", wide, false, binaryMagicWide},
		{"text", sampleTrace(), true, "# "},
	} {
		var buf bytes.Buffer
		write := tc.tr.WriteBinary
		if tc.text {
			write = tc.tr.WriteText
		}
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(buf.Bytes(), []byte(tc.head)) {
			t.Fatalf("%s: encoding starts %q, want %q", tc.name, buf.Bytes()[:8], tc.head)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Len() != tc.tr.Len() {
			t.Fatalf("%s: %d packets, want %d", tc.name, got.Len(), tc.tr.Len())
		}
		for i := range tc.tr.Len() {
			if got.At(i) != tc.tr.At(i) {
				t.Errorf("%s: packet %d: %+v vs %+v", tc.name, i, got.At(i), tc.tr.At(i))
			}
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"bad meta":  "# nokeyvalue\n",
		"bad host":  "#host x y\n",
		"too short": "0.5 a.1 > b.2: tcp\n",
		"bad proto": "0.5 a.1 > b.2: ipx 100 flags=0 src=0 dst=1\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestReadTextEmpty(t *testing.T) {
	got, err := ReadText(strings.NewReader(""))
	if err != nil || got.Len() != 0 {
		t.Errorf("empty: %v, %d packets", err, got.Len())
	}
}
