package main

import (
	"fmt"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// txDuration is the serialization time of a captured frame of the given
// size at bitRate: the minimum-frame padding and the preamble are on the
// wire but not in the capture, and the rounding is sim.DurationOf's.
func txDuration(size uint16, bitRate float64) sim.Duration {
	wire := max(int(size), ethernet.MinWireBytes) + ethernet.PreambleBytes
	return sim.DurationOf(float64(wire*8) / bitRate)
}

// checkExclusion is the collision-domain oracle for a capture of one
// shared segment: one frame on the medium at a time. A capture is stamped
// when its frame's last bit leaves the wire, so frame j started at
// t_j − txDuration(size_j), and that start must follow the end of every
// earlier frame by at least the inter-frame gap. Captures are in time
// order, so checking consecutive pairs covers every pair.
func checkExclusion(tr *trace.Trace, bitRate float64) error {
	var prev sim.Time
	for j, p := range tr.Packets {
		start := p.Time.Add(-txDuration(p.Size, bitRate))
		if gap := start.Sub(prev); j > 0 && gap < ethernet.InterFrameGap {
			return fmt.Errorf("frames %d and %d overlap on the segment: %d-byte frame %d starts %d ns after frame %d ends, want ≥ %d",
				j-1, j, p.Size, j, gap, j-1, ethernet.InterFrameGap)
		}
		prev = p.Time
	}
	return nil
}

// The oracle fires on a trace whose second frame starts 1 ns before the
// inter-frame gap after the first has elapsed, and passes it at exactly
// the gap.
func TestExclusionCatchesOverlap(t *testing.T) {
	const size = 1518
	first := sim.Time(1_000_000)
	tight := first.Add(ethernet.InterFrameGap + txDuration(size, ethernet.DefaultBitRate))
	for _, tc := range []struct {
		at   sim.Time
		fail bool
	}{{tight, false}, {tight - 1, true}} {
		tr := trace.FromPackets([]trace.Packet{{Time: first, Size: size}, {Time: tc.at, Size: size}})
		if err := checkExclusion(tr, ethernet.DefaultBitRate); (err != nil) != tc.fail {
			t.Errorf("second frame at %d: err = %v, want failure %v", tc.at, err, tc.fail)
		}
	}
}
