package trace

import (
	"testing"

	"fxnet/internal/ethernet"
)

// captureOf renders a Packet back into the tap-callback form.
func captureOf(p Packet) ethernet.Capture {
	return ethernet.Capture{
		Time: p.Time, Size: int(p.Size), Src: int(p.Src), Dst: int(p.Dst),
		Proto: p.Proto, Flags: p.Flags, SrcPort: p.SrcPort, DstPort: p.DstPort,
	}
}

// recordingSink copies every folded row out of the chunk, so the test
// sees exactly what a streaming analysis would see even when the
// collector recycles the chunk's backing arrays.
type recordingSink struct {
	packets []Packet
	folds   int
}

func (s *recordingSink) Fold(ch *Chunk) {
	s.folds++
	for i := range ch.Len() {
		s.packets = append(s.packets, ch.Packet(i))
	}
}

// drive pushes n synthetic packets through a collector's record path.
func drive(c *Collector, n int) {
	for i := 0; i < n; i++ {
		p := synthPacket(i)
		c.record(captureOf(p))
	}
}

// TestSinkSeesEveryPacketOnce: across chunk rotations and the Flush
// tail, the sink must observe the capture exactly — same packets, same
// order — in both retain modes.
func TestSinkSeesEveryPacketOnce(t *testing.T) {
	for _, retain := range []bool{true, false} {
		for _, n := range []int{0, 1, collectorChunk - 1, collectorChunk, collectorChunk + 1, 3*collectorChunk + 17} {
			c := NewCollector()
			c.SetRetain(retain)
			sink := &recordingSink{}
			c.AddSink(sink)
			drive(c, n)
			c.Flush()
			if len(sink.packets) != n {
				t.Fatalf("retain=%v n=%d: sink saw %d packets", retain, n, len(sink.packets))
			}
			for i, p := range sink.packets {
				if p != synthPacket(i) {
					t.Fatalf("retain=%v n=%d: sink packet %d mismatch: %+v", retain, n, i, p)
				}
			}
			tr := c.Trace()
			if retain {
				if tr.Len() != n {
					t.Fatalf("retain n=%d: trace has %d packets", n, tr.Len())
				}
				for i := range tr.Len() {
					if tr.At(i) != sink.packets[i] {
						t.Fatalf("retain n=%d: trace/sink disagree at %d", n, i)
					}
				}
			} else if tr.Len() != 0 {
				t.Fatalf("streaming n=%d: trace retained %d packets", n, tr.Len())
			}
		}
	}
}

// TestStreamingReusesOneChunk: a non-retaining collector must hold at
// most one chunk of packet memory regardless of capture length — the
// O(windows) guarantee of analysis-only runs.
func TestStreamingReusesOneChunk(t *testing.T) {
	c := NewCollector()
	c.SetRetain(false)
	sink := &countingSink{}
	c.AddSink(sink)
	drive(c, 5*collectorChunk+3)
	if n := len(c.Trace().Chunks()); n != 0 {
		t.Fatalf("streaming collector retained %d chunks", n)
	}
	if got := cap(c.cur.Time); got != collectorChunk {
		t.Fatalf("current chunk capacity %d, want %d", got, collectorChunk)
	}
	c.Flush()
	if sink.n != 5*collectorChunk+3 {
		t.Fatalf("sink counted %d packets", sink.n)
	}
	// Flush is an idempotent barrier: a second call must not re-fold the
	// tail, and capture stays off.
	c.Flush()
	if sink.n != 5*collectorChunk+3 {
		t.Fatalf("double Flush re-folded: %d packets", sink.n)
	}
	drive(c, 10)
	if sink.n != 5*collectorChunk+3 {
		t.Fatalf("capture after Flush leaked %d packets", sink.n-(5*collectorChunk+3))
	}
}

type countingSink struct{ n int }

func (s *countingSink) Fold(ch *Chunk) { s.n += ch.Len() }

// TestChunkPacketRoundTrip: Packet(i) must reassemble exactly the tuple
// that record() decomposed into columns.
func TestChunkPacketRoundTrip(t *testing.T) {
	c := NewCollector()
	drive(c, 100)
	if c.cur.Len() != 100 {
		t.Fatalf("chunk has %d rows", c.cur.Len())
	}
	for i := 0; i < 100; i++ {
		if got, want := c.cur.Packet(i), synthPacket(i); got != want {
			t.Fatalf("row %d: got %+v want %+v", i, got, want)
		}
	}
}
