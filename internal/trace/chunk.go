package trace

import (
	"encoding/binary"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
)

// Chunk is a columnar (structure-of-arrays) block of at most
// collectorChunk captured packets: each field of the packet tuple lives
// in its own parallel slice, so a streaming analysis that only needs
// timestamps and sizes walks two dense arrays instead of striding
// through 18-byte records. Row i of every column belongs to the same
// packet. A Trace is its chunks; the collector fills them, the codec
// encodes and decodes them a chunk at a time, and the characterizer
// folds them.
type Chunk struct {
	Time    []sim.Time
	Size    []uint16
	Src     []uint16
	Dst     []uint16
	Proto   []ethernet.Proto
	Flags   []uint8
	SrcPort []uint16
	DstPort []uint16
}

// makeChunk returns a chunk of n zero rows, for a decoder to fill, with
// room for c rows in every column, for the collector to append.
func makeChunk(n, c int) *Chunk {
	return &Chunk{
		Time:    make([]sim.Time, n, c),
		Size:    make([]uint16, n, c),
		Src:     make([]uint16, n, c),
		Dst:     make([]uint16, n, c),
		Proto:   make([]ethernet.Proto, n, c),
		Flags:   make([]uint8, n, c),
		SrcPort: make([]uint16, n, c),
		DstPort: make([]uint16, n, c),
	}
}

// Len reports the number of packets in the chunk.
func (c *Chunk) Len() int { return len(c.Time) }

// Packet reconstructs row i as an AoS Packet.
func (c *Chunk) Packet(i int) Packet {
	return Packet{
		Time:    c.Time[i],
		Size:    c.Size[i],
		Src:     c.Src[i],
		Dst:     c.Dst[i],
		Proto:   c.Proto[i],
		Flags:   c.Flags[i],
		SrcPort: c.SrcPort[i],
		DstPort: c.DstPort[i],
	}
}

// append adds p as the chunk's last row.
func (c *Chunk) append(p Packet) {
	c.Time = append(c.Time, p.Time)
	c.Size = append(c.Size, p.Size)
	c.Src = append(c.Src, p.Src)
	c.Dst = append(c.Dst, p.Dst)
	c.Proto = append(c.Proto, p.Proto)
	c.Flags = append(c.Flags, p.Flags)
	c.SrcPort = append(c.SrcPort, p.SrcPort)
	c.DstPort = append(c.DstPort, p.DstPort)
}

// encode appends the chunk's rows to b as binary-format records, narrow
// (v1) or wide (v2). b must have room for them: WriteBinary sizes its
// block buffer for the largest chunk.
func (c *Chunk) encode(b []byte, narrow bool) []byte {
	le := binary.LittleEndian
	n := packetRecBytesWide
	if narrow {
		n = packetRecBytes
	}
	for i, at := range c.Time {
		rec := b[len(b) : len(b)+n]
		le.PutUint64(rec, uint64(int64(at)))
		le.PutUint16(rec[8:], c.Size[i])
		tail := rec[14:] // proto, flags, ports follow the addresses
		if narrow {
			// Broadcast = 0xFFFF truncates to the v1 broadcast 0xFF.
			rec[10], rec[11], tail = uint8(c.Src[i]), uint8(c.Dst[i]), rec[12:]
		} else {
			le.PutUint16(rec[10:], c.Src[i])
			le.PutUint16(rec[12:], c.Dst[i])
		}
		tail[0], tail[1] = uint8(c.Proto[i]), c.Flags[i]
		le.PutUint16(tail[2:], c.SrcPort[i])
		le.PutUint16(tail[4:], c.DstPort[i])
		b = b[:len(b)+n]
	}
	return b
}

// reset empties the chunk, keeping the column capacity for reuse.
func (c *Chunk) reset() {
	c.Time = c.Time[:0]
	c.Size = c.Size[:0]
	c.Src = c.Src[:0]
	c.Dst = c.Dst[:0]
	c.Proto = c.Proto[:0]
	c.Flags = c.Flags[:0]
	c.SrcPort = c.SrcPort[:0]
	c.DstPort = c.DstPort[:0]
}

// Sink consumes columnar chunks as they fill during capture. Fold is
// called in capture order with non-overlapping chunks; together the
// chunks of one capture session cover every recorded packet exactly
// once. When the collector is not retaining (SetRetain(false)), the
// chunk's backing arrays are reused for the next chunk, so the sink must
// finish reading before returning and must not hold references to the
// columns.
type Sink interface {
	Fold(*Chunk)
}
