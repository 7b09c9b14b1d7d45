package airshed

import (
	"encoding/binary"
	"math"

	"fxnet/internal/fx"
)

// Each transpose is a pack, an fx.Worker.AllToAll and an unpack, and Run
// does the pack and the unpack inside the rank's ComputeWith charges
// (DESIGN.md §8 "Ranks on every core"), so the simulator goroutine only
// moves the parts. Parts hold float32s in fx.AppendFloat32s's format,
// ordered (layer, species, grid), so the by-grid halves are a transpose
// of the points array; each writes contiguously and reads strided from a
// span that stays in cache. The parts are this rank's own buffers,
// reused by every transpose: Worker.Send copies a body before it returns
// (AIRSHED sends copy-loop messages), and AllToAll's result — the
// received bodies and this rank's own part, aliased — is unpacked before
// the pack that next writes the buffers.

// parts allocates this rank's send parts of both transposes for a team
// of P: forward, to rank q, the owned layers × all species × q's grid
// slice; reverse, to rank q, q's layers × all species × the owned points.
func (st *state) parts(P int) (fwd, rev [][]byte) {
	fwd, rev = make([][]byte, P), make([][]byte, P)
	for q := range P {
		glo, ghi := fx.BlockRange(st.p.Grid, P, q)
		llo, lhi := fx.BlockRange(st.p.Layers, P, q)
		fwd[q] = make([]byte, 4*st.nl*st.p.Species*(ghi-glo))
		rev[q] = make([]byte, 4*(lhi-llo)*st.p.Species*st.np)
	}
	return fwd, rev
}

// packForward writes the forward transpose's parts: to every rank q, its
// grid slice of every owned species row — the O(p·s·l/P²)-element
// message of the paper's §3.2.
func (st *state) packForward(parts [][]byte) {
	G := st.p.Grid
	for q, part := range parts {
		qglo, qghi := fx.BlockRange(G, len(parts), q)
		// part has exactly the capacity the rows need, so the appends
		// fill it in place.
		b := part[:0]
		for r := 0; r < st.nl*st.p.Species; r++ { // r = ownedLayer·Species + species
			b = fx.AppendFloat32s(b, st.block[r*G+qglo:r*G+qghi])
		}
	}
}

// unpackForward moves the forward transpose's received parts into the
// owned points: from rank q, q's layers × all species × the owned points,
// so point g's column is element g of every row of every part, in rank
// order. It writes one column at a time and reads the parts strided.
func (st *state) unpackForward(got [][]byte) {
	n, np := st.p.Layers*st.p.Species, st.np
	for g := 0; g < np; g++ {
		col := st.points[g*n : (g+1)*n]
		r := 0 // the column's row: layer·Species + species
		for _, part := range got {
			for o := 4 * g; o < len(part); o += 4 * np {
				col[r] = math.Float32frombits(binary.LittleEndian.Uint32(part[o:]))
				r++
			}
		}
	}
}

// pointTile is how many points packReverse reads at once: 16 float32s
// are one 64-byte line of a part's row, and 16 columns of the points
// array stay in L1 while every row's line is written.
const pointTile = 16

// packReverse writes the reverse transpose's parts, unpackForward's
// inverse: to every rank q, the owned points' values of q's layers. It
// writes a line of a part at a time from a tile of points.
func (st *state) packReverse(parts [][]byte) {
	n, np := st.p.Layers*st.p.Species, st.np
	for g0 := 0; g0 < np; g0 += pointTile {
		tile := st.points[g0*n : min(g0+pointTile, np)*n]
		r := 0
		for _, part := range parts {
			for o := 4 * g0; o < len(part); o += 4 * np {
				line := part[o : o+4*len(tile)/n]
				for i := r; len(line) >= 4; i += n { // tile[i]: row r of the line's next point
					binary.LittleEndian.PutUint32(line, math.Float32bits(tile[i]))
					line = line[4:]
				}
				r++
			}
		}
	}
}

// unpackReverse moves the reverse transpose's received parts into the
// owned species rows, packForward's inverse: from rank q, q's grid slice
// of every owned row.
func (st *state) unpackReverse(got [][]byte) {
	G := st.p.Grid
	for q, part := range got {
		qglo, qghi := fx.BlockRange(G, len(got), q)
		m := qghi - qglo
		for r := 0; r < st.nl*st.p.Species; r++ {
			fx.DecodeFloat32s(st.block[r*G+qglo:r*G+qghi], part[4*r*m:4*(r+1)*m])
		}
	}
}
