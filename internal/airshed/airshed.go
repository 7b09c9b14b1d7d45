// Package airshed implements the Fx skeleton of the multiscale AIRSHED
// air-quality model the paper measures: s chemical species over p grid
// points in l atmospheric layers, simulated for h hours of k steps each.
//
// Each hour begins with a preprocessing phase that assembles and factors
// a per-layer finite-element stiffness matrix (banded, so the factor is
// O(p·band²) as a 1D FEM discretization gives). Each step then performs a
// horizontal transport phase (l×s banded backsolves on the by-layer
// distribution), an all-to-all transpose to the by-grid-point
// distribution, a chemistry/vertical-transport phase (a predictor–
// corrector ODE integration per grid point), a reverse transpose, and a
// second horizontal transport phase. The transposes are the program's
// only communication: each processor sends an O(p·s·l/P²)-element block
// to every other processor, twice per step — the traffic of figures 8–11.
package airshed

import (
	"fmt"
	"math"

	"fxnet/internal/fx"
	"fxnet/internal/linalg"
)

// Params dimension the simulation.
type Params struct {
	Layers  int // l: atmospheric layers
	Species int // s: chemical species
	Grid    int // p: grid points per layer
	Steps   int // k: simulation steps per hour
	Hours   int // h: simulated hours
	Band    int // stiffness half-bandwidth of the 1D FEM discretization
}

// PaperParams returns the paper's configuration: s=35, p=1024, l=4, k=5,
// h=100.
func PaperParams() Params {
	return Params{Layers: 4, Species: 35, Grid: 1024, Steps: 5, Hours: 100, Band: 8}
}

// Rates are the calibrated cost-model rates (operations per virtual
// second) that place the three phases at the paper's time scales:
// preprocessing ≈ 31 s (hour period ≈ 66 s), chemistry ≈ 5 s, horizontal
// transport ≈ 200 ms. See EXPERIMENTS.md.
var Rates = map[string]float64{
	"airshed.factor": 14500,
	"airshed.solve":  6.0e6,
	"airshed.chem":   172000,
}

const tagBase = 500000

// chemistry integration parameters.
const (
	chemSubsteps = 4
	chemDT       = float32(0.01)
)

// initConc is the deterministic initial concentration ("input from
// disk") for layer li, species si, grid point g.
func initConc(li, si, g int, p Params) float32 {
	x := float64(g) / float64(p.Grid)
	return float32(1 + 0.5*math.Sin(2*math.Pi*x*float64(si+1)/8)*math.Cos(float64(li+1)))
}

// stiffness assembles the banded per-layer, per-hour FEM stiffness
// matrix. It is strictly diagonally dominant, so the pivot-free banded
// factorization is stable. The returned op count feeds the cost model.
func stiffness(layer, hour int, p Params) (*linalg.Banded, float64) {
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

// chemPoint integrates one grid point's l×s species column with Heun's
// predictor–corrector: decay per species plus vertical diffusion between
// layers. y is indexed [layer][species] and updated in place. Returns the
// op count.
func chemPoint(y [][]float32, p Params) float64 {
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

// transport runs one horizontal transport phase on the by-layer block:
// for every owned layer and species, a banded backsolve updates the
// concentration row. Returns the flop count.
func transport(block [][][]float32, lus []*linalg.BandedLU, p Params) float64 {
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

// Run executes the AIRSHED skeleton on worker w and returns the worker's
// owned layers after the final hour, indexed [ownedLayer][species][grid].
func Run(w *fx.Worker, p Params) [][][]float32 {
	llo, lhi := fx.BlockRange(p.Layers, w.P, w.Rank)
	glo, ghi := fx.BlockRange(p.Grid, w.P, w.Rank)
	myPoints := ghi - glo

	// By-layer block: block[li][si][g].
	block := make([][][]float32, lhi-llo)
	for li := range block {
		block[li] = make([][]float32, p.Species)
		for si := 0; si < p.Species; si++ {
			block[li][si] = make([]float32, p.Grid)
			for g := 0; g < p.Grid; g++ {
				block[li][si][g] = initConc(llo+li, si, g, p)
			}
		}
	}
	// By-grid block for the chemistry phase: points[g][li][si].
	points := make([][][]float32, myPoints)
	for g := range points {
		points[g] = make([][]float32, p.Layers)
		for li := range points[g] {
			points[g][li] = make([]float32, p.Species)
		}
	}

	tag := tagBase
	for hour := 0; hour < p.Hours; hour++ {
		// Preprocessing: assemble and factor stiffness per owned layer.
		lus := make([]*linalg.BandedLU, lhi-llo)
		var preOps float64
		for li := range lus {
			a, aOps := stiffness(llo+li, hour, p)
			lu, err := linalg.FactorBanded(a)
			if err != nil {
				panic(fmt.Sprintf("airshed: %v", err))
			}
			lus[li] = lu
			preOps += aOps + lu.FactorFlops
		}
		w.Compute("airshed.factor", preOps)

		for step := 0; step < p.Steps; step++ {
			// Horizontal transport (by-layer, local).
			w.Compute("airshed.solve", transport(block, lus, p))

			// Transpose to by-grid distribution.
			transposeForward(w, block, points, tag, p)
			tag += w.P

			// Chemistry / vertical transport (by-grid, local).
			var chemOps float64
			for g := range points {
				chemOps += chemPoint(points[g], p)
			}
			w.Compute("airshed.chem", chemOps)

			// Reverse transpose back to by-layer.
			transposeReverse(w, block, points, tag, p)
			tag += w.P

			// Second horizontal transport.
			w.Compute("airshed.solve", transport(block, lus, p))
		}
	}
	return block
}

// Sequential runs the same simulation single-process with identical
// float32 arithmetic order, returning [layer][species][grid].
func Sequential(p Params) [][][]float32 {
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
			a, _ := stiffness(li, hour, p)
			lu, err := linalg.FactorBanded(a)
			if err != nil {
				panic(err)
			}
			lus[li] = lu
		}
		for step := 0; step < p.Steps; step++ {
			transport(block, lus, p)
			for g := 0; g < p.Grid; g++ {
				for li := 0; li < p.Layers; li++ {
					for si := 0; si < p.Species; si++ {
						points[g][li][si] = block[li][si][g]
					}
				}
			}
			for g := range points {
				chemPoint(points[g], p)
			}
			for g := 0; g < p.Grid; g++ {
				for li := 0; li < p.Layers; li++ {
					for si := 0; si < p.Species; si++ {
						block[li][si][g] = points[g][li][si]
					}
				}
			}
			transport(block, lus, p)
		}
	}
	return block
}
