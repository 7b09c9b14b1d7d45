package airshed

import (
	"encoding/binary"
	"math"

	"fxnet/internal/fx"
	"fxnet/internal/linalg"
)

// The AIRSHED numerics as they stood before the flat-array kernels —
// nested [][]float32 state, a Banded.Set per stiffness element, ten
// slices and a closure per chemistry point, one allocating Solve per
// species row — bodies verbatim apart from the Heun corrector, which
// evaluates into its own buffer (the one fix: see TestChemistryColumnMass).
// They are the bit-identity reference for Sequential, and through
// TestDistributedMatchesSequential for Run: host-side values only have to
// be bit-stable against this file, while every op count handed to
// w.Compute must equal the one computed here.

// legacyStiffness assembles the banded per-layer, per-hour FEM stiffness
// matrix. It is strictly diagonally dominant, so the pivot-free banded
// factorization is stable. The returned op count feeds the cost model.
func legacyStiffness(layer, hour int, p Params) (*linalg.Banded, float64) {
	b := linalg.NewBanded(p.Grid, p.Band)
	wind := 0.4 + 0.2*math.Sin(float64(hour)/7+float64(layer))
	ops := 0.0
	for i := 0; i < p.Grid; i++ {
		var off float64
		for d := 1; d <= p.Band; d++ {
			c := wind / float64(d*d) / 2.5
			if i-d >= 0 {
				b.Set(i, i-d, -c)
				off += c
				ops += 3
			}
			if i+d < p.Grid {
				b.Set(i, i+d, -c)
				off += c
				ops += 3
			}
		}
		b.Set(i, i, 1+off*1.1)
		ops += 2
	}
	return b, ops
}

// legacyChemPoint integrates one grid point's l×s species column with Heun's
// predictor–corrector: decay per species plus vertical diffusion between
// layers. y is indexed [layer][species] and updated in place. Returns the
// op count.
func legacyChemPoint(y [][]float32, p Params) float64 {
	l, s := p.Layers, p.Species
	f := make([][]float32, l)
	pred := make([][]float32, l)
	corr := make([][]float32, l)
	for li := 0; li < l; li++ {
		f[li] = make([]float32, s)
		pred[li] = make([]float32, s)
		corr[li] = make([]float32, s)
	}
	deriv := func(state [][]float32, out [][]float32) {
		for li := 0; li < l; li++ {
			for si := 0; si < s; si++ {
				decay := float32(0.05 + 0.01*float32(si%7))
				v := -decay * state[li][si]
				if li > 0 {
					v += 0.1 * (state[li-1][si] - state[li][si])
				}
				if li < l-1 {
					v += 0.1 * (state[li+1][si] - state[li][si])
				}
				out[li][si] = v
			}
		}
	}
	for step := 0; step < chemSubsteps; step++ {
		deriv(y, f)
		for li := 0; li < l; li++ {
			for si := 0; si < s; si++ {
				pred[li][si] = y[li][si] + chemDT*f[li][si]
			}
		}
		// The corrector derivative needs its own buffer: layer li reads
		// the predicted state of layers li±1.
		deriv(pred, corr)
		for li := 0; li < l; li++ {
			for si := 0; si < s; si++ {
				y[li][si] += chemDT * 0.5 * (f[li][si] + corr[li][si])
			}
		}
	}
	return float64(chemSubsteps * l * s * 12)
}

// legacyTransport runs one horizontal transport phase on the by-layer block:
// for every owned layer and species, a banded backsolve updates the
// concentration row. Returns the flop count.
func legacyTransport(block [][][]float32, lus []*linalg.BandedLU, p Params) float64 {
	var ops float64
	rhs := make([]float64, p.Grid)
	for li := range block {
		lu := lus[li]
		for si := 0; si < p.Species; si++ {
			row := block[li][si]
			for g := range rhs {
				rhs[g] = float64(row[g])
			}
			x, flops := lu.Solve(rhs)
			ops += flops
			for g := range row {
				row[g] = float32(x[g])
			}
		}
	}
	return ops
}

// legacySequential runs the simulation single-process on the legacy
// functions, returning [layer][species][grid].
func legacySequential(p Params) [][][]float32 {
	block := make([][][]float32, p.Layers)
	for li := range block {
		block[li] = make([][]float32, p.Species)
		for si := 0; si < p.Species; si++ {
			block[li][si] = make([]float32, p.Grid)
			for g := 0; g < p.Grid; g++ {
				block[li][si][g] = initConc(li, si, g, p)
			}
		}
	}
	points := make([][][]float32, p.Grid)
	for g := range points {
		points[g] = make([][]float32, p.Layers)
		for li := range points[g] {
			points[g][li] = make([]float32, p.Species)
		}
	}
	for hour := 0; hour < p.Hours; hour++ {
		lus := make([]*linalg.BandedLU, p.Layers)
		for li := range lus {
			a, _ := legacyStiffness(li, hour, p)
			lu, err := linalg.FactorBanded(a)
			if err != nil {
				panic(err)
			}
			lus[li] = lu
		}
		for step := 0; step < p.Steps; step++ {
			legacyTransport(block, lus, p)
			for g := 0; g < p.Grid; g++ {
				for li := 0; li < p.Layers; li++ {
					for si := 0; si < p.Species; si++ {
						points[g][li][si] = block[li][si][g]
					}
				}
			}
			for g := range points {
				legacyChemPoint(points[g], p)
			}
			for g := 0; g < p.Grid; g++ {
				for li := 0; li < p.Layers; li++ {
					for si := 0; si < p.Species; si++ {
						block[li][si][g] = points[g][li][si]
					}
				}
			}
			legacyTransport(block, lus, p)
		}
	}
	return block
}

// legacyTransposeForward and legacyTransposeReverse are the transposes as
// they stood before each was split into a pack and an unpack that run off
// the simulator goroutine: verbatim, but for the all-to-all, which they
// take as exchange (and P) so a test sees the parts they send. They are
// the byte-identity reference for packForward/packReverse and the
// bit-identity reference for unpackForward/unpackReverse.
func (st *state) legacyTransposeForward(P int, exchange func(parts [][]byte) [][]byte) {
	p := st.p
	parts := make([][]byte, P)
	for q := range parts {
		qglo, qghi := fx.BlockRange(p.Grid, P, q)
		buf := make([]byte, 0, 4*st.nl*p.Species*(qghi-qglo))
		for li := 0; li < st.nl; li++ {
			for si := 0; si < p.Species; si++ {
				buf = fx.AppendFloat32s(buf, st.row(li, si)[qglo:qghi])
			}
		}
		parts[q] = buf
	}
	got := exchange(parts)
	n := p.Layers * p.Species
	for q, vals := range got {
		qllo, qlhi := fx.BlockRange(p.Layers, P, q)
		idx := 0
		for r := qllo * p.Species; r < qlhi*p.Species; r++ { // r = layer·Species + species
			for g := 0; g < st.np; g++ {
				st.points[g*n+r] = legacyGet32(vals, idx)
				idx++
			}
		}
	}
}

func (st *state) legacyTransposeReverse(P int, exchange func(parts [][]byte) [][]byte) {
	p := st.p
	n := p.Layers * p.Species
	parts := make([][]byte, P)
	for q := range parts {
		qllo, qlhi := fx.BlockRange(p.Layers, P, q)
		buf := make([]byte, 0, 4*(qlhi-qllo)*p.Species*st.np)
		for r := qllo * p.Species; r < qlhi*p.Species; r++ {
			for g := 0; g < st.np; g++ {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(st.points[g*n+r]))
			}
		}
		parts[q] = buf
	}
	got := exchange(parts)
	for q, vals := range got {
		qglo, qghi := fx.BlockRange(p.Grid, P, q)
		idx := 0
		for li := 0; li < st.nl; li++ {
			for si := 0; si < p.Species; si++ {
				row := st.row(li, si)[qglo:qghi]
				for g := range row {
					row[g] = legacyGet32(vals, idx)
					idx++
				}
			}
		}
	}
}

// legacyGet32 decodes element i of a buffer written by fx.AppendFloat32s.
func legacyGet32(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}
