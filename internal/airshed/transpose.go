package airshed

import (
	"encoding/binary"
	"math"

	"fxnet/internal/fx"
)

// The transposes move values straight between the flat arrays and the
// wire: rows are encoded from the block into the send buffer and decoded
// from the received bytes into place, with no []float32 in between. Send
// buffers are allocated per transpose because frames on the simulated
// wire alias the message payload.

// get32 decodes element i of a buffer written by fx.AppendFloat32s.
func get32(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

// transposeForward redistributes the concentration array from by-layer
// blocks to by-grid-point blocks with one all-to-all: each rank sends, to
// every rank q, its owned layers × all species × q's grid slice — the
// O(p·s·l/P²)-element message of the paper's §3.2. Elements are ordered
// (layer, species, grid) within each part.
func (st *state) transposeForward(w *fx.Worker, tag int) {
	p := st.p
	parts := make([][]byte, w.P)
	for q := range parts {
		qglo, qghi := fx.BlockRange(p.Grid, w.P, q)
		buf := make([]byte, 0, 4*st.nl*p.Species*(qghi-qglo))
		for li := 0; li < st.nl; li++ {
			for si := 0; si < p.Species; si++ {
				buf = fx.AppendFloat32s(buf, st.row(li, si)[qglo:qghi])
			}
		}
		parts[q] = buf
	}
	got := w.AllToAll(tag, parts)
	n := p.Layers * p.Species
	for q, vals := range got {
		qllo, qlhi := fx.BlockRange(p.Layers, w.P, q)
		idx := 0
		for r := qllo * p.Species; r < qlhi*p.Species; r++ { // r = layer·Species + species
			for g := 0; g < st.np; g++ {
				st.points[g*n+r] = get32(vals, idx)
				idx++
			}
		}
	}
}

// transposeReverse is the inverse redistribution: each rank sends, to
// every layer owner q, the slice of its grid points for q's layers,
// ordered (layer, species, grid).
func (st *state) transposeReverse(w *fx.Worker, tag int) {
	p := st.p
	n := p.Layers * p.Species
	parts := make([][]byte, w.P)
	for q := range parts {
		qllo, qlhi := fx.BlockRange(p.Layers, w.P, q)
		buf := make([]byte, 0, 4*(qlhi-qllo)*p.Species*st.np)
		for r := qllo * p.Species; r < qlhi*p.Species; r++ {
			for g := 0; g < st.np; g++ {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(st.points[g*n+r]))
			}
		}
		parts[q] = buf
	}
	got := w.AllToAll(tag, parts)
	for q, vals := range got {
		qglo, qghi := fx.BlockRange(p.Grid, w.P, q)
		idx := 0
		for li := 0; li < st.nl; li++ {
			for si := 0; si < p.Species; si++ {
				row := st.row(li, si)[qglo:qghi]
				for g := range row {
					row[g] = get32(vals, idx)
					idx++
				}
			}
		}
	}
}
