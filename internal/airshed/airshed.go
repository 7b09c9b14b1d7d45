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

// Validate reports whether p dimensions a simulation Run can execute.
// The zero value is valid: callers take it to mean PaperParams.
func (p Params) Validate() error {
	if p == (Params{}) {
		return nil
	}
	switch {
	case p.Layers < 1 || p.Species < 1 || p.Grid < 1 || p.Steps < 1:
		return fmt.Errorf("airshed: Layers, Species, Grid and Steps must be at least 1, have %+v", p)
	case p.Hours < 0:
		return fmt.Errorf("airshed: Hours %d is negative", p.Hours)
	case p.Band < 0 || p.Band >= p.Grid:
		return fmt.Errorf("airshed: Band %d outside [0, Grid=%d)", p.Band, p.Grid)
	}
	return nil
}

// state is one process's working set, flat so the kernels run on plain
// slices (DESIGN.md §8 "Kernel numerics"). A rank of a distributed run
// owns nl layers starting at llo in the by-layer distribution and np grid
// points in the by-grid one; the sequential run owns everything.
type state struct {
	p           Params
	llo, nl, np int
	// block is the by-layer array [ownedLayer][species][grid]: one
	// species row is Grid contiguous values, the unit transport solves.
	block []float32
	// points is the by-grid array [ownedPoint][layer][species]: one
	// point's l×s column is contiguous, the unit chemistry integrates.
	points []float32
	chem   *heun
	rhs    [][]float64 // transport scratch: solveBatch rows of Grid
}

// solveBatch is how many species rows transport backsolves at once: the
// width linalg's batched kernel interleaves.
const solveBatch = 4

func newState(p Params, llo, nl, np int) *state {
	st := &state{
		p: p, llo: llo, nl: nl, np: np,
		block:  make([]float32, nl*p.Species*p.Grid),
		points: make([]float32, np*p.Layers*p.Species),
		chem:   newHeun(p),
		rhs:    make([][]float64, solveBatch),
	}
	scratch := make([]float64, solveBatch*p.Grid)
	for k := range st.rhs {
		st.rhs[k] = scratch[k*p.Grid : (k+1)*p.Grid]
	}
	for li := 0; li < nl; li++ {
		for si := 0; si < p.Species; si++ {
			row := st.row(li, si)
			for g := range row {
				row[g] = initConc(llo+li, si, g, p)
			}
		}
	}
	return st
}

// row is species si of owned layer li.
func (st *state) row(li, si int) []float32 {
	o := (li*st.p.Species + si) * st.p.Grid
	return st.block[o : o+st.p.Grid : o+st.p.Grid]
}

// layers returns the by-layer block as [ownedLayer][species][grid] views
// over the one backing array.
func (st *state) layers() [][][]float32 {
	out := make([][][]float32, st.nl)
	rows := make([][]float32, st.nl*st.p.Species)
	for li := range out {
		out[li] = rows[li*st.p.Species : (li+1)*st.p.Species]
		for si := range out[li] {
			out[li][si] = st.row(li, si)
		}
	}
	return out
}

// stiffness assembles the banded per-layer, per-hour FEM stiffness
// matrix. It is strictly diagonally dominant, so the pivot-free banded
// factorization is stable. The returned op count feeds the cost model.
func stiffness(layer, hour int, p Params) (*linalg.Banded, float64) {
	b := linalg.NewBanded(p.Grid, p.Band)
	wind := 0.4 + 0.2*math.Sin(float64(hour)/7+float64(layer))
	ops := 0.0
	for i := 0; i < p.Grid; i++ {
		row := b.Row(i) // row[Band+d] is element (i, i+d)
		var off float64
		for d := 1; d <= p.Band; d++ {
			c := wind / float64(d*d) / 2.5
			if i-d >= 0 {
				row[p.Band-d] = -c
				off += c
				ops += 3
			}
			if i+d < p.Grid {
				row[p.Band+d] = -c
				off += c
				ops += 3
			}
		}
		row[p.Band] = 1 + off*1.1
		ops += 2
	}
	return b, ops
}

// factor is the hourly preprocessing: assemble and factor the stiffness
// matrix of every owned layer. Returns the factors and the op count.
func (st *state) factor(hour int) ([]*linalg.BandedLU, float64) {
	lus := make([]*linalg.BandedLU, st.nl)
	var ops float64
	for li := range lus {
		a, aOps := stiffness(st.llo+li, hour, st.p)
		lu, err := linalg.FactorBanded(a)
		if err != nil {
			panic(fmt.Sprintf("airshed: %v", err))
		}
		lus[li] = lu
		ops += aOps + float64(lu.FactorFlops)
	}
	return lus, ops
}

// transportOps is the flop count of one transport phase over lus: one
// backsolve per owned layer and species. It depends on structure alone,
// so it is known before the solves run.
func (st *state) transportOps(lus []*linalg.BandedLU) float64 {
	var ops float64
	for _, lu := range lus {
		ops += float64(st.p.Species * lu.SolveFlops)
	}
	return ops
}

// transport runs one horizontal transport phase on the by-layer block:
// for every owned layer and species, a banded backsolve updates the
// concentration row, solveBatch rows at a time through reused float64
// scratch.
func (st *state) transport(lus []*linalg.BandedLU) {
	for li, lu := range lus {
		for si := 0; si < st.p.Species; si += solveBatch {
			rhs := st.rhs[:min(solveBatch, st.p.Species-si)]
			for k, x := range rhs {
				for g, v := range st.row(li, si+k) {
					x[g] = float64(v)
				}
			}
			lu.SolveBatch(rhs)
			for k, x := range rhs {
				row := st.row(li, si+k)
				for g, v := range x {
					row[g] = float32(v)
				}
			}
		}
	}
}

// heun integrates one grid point's l×s species column with Heun's
// predictor–corrector: decay per species plus vertical diffusion between
// layers. The decay table and the three derivative buffers are per run,
// so a point costs no allocation.
type heun struct {
	l, s          int
	decay         []float32 // per species
	f, pred, corr []float32 // l×s each: y′(y), the predicted state, y′(pred)
}

func newHeun(p Params) *heun {
	h := &heun{l: p.Layers, s: p.Species, decay: make([]float32, p.Species)}
	for si := range h.decay {
		h.decay[si] = float32(0.05 + 0.01*float32(si%7))
	}
	scratch := make([]float32, 3*h.l*h.s)
	h.f, h.pred, h.corr = scratch[:h.l*h.s], scratch[h.l*h.s:2*h.l*h.s], scratch[2*h.l*h.s:]
	return h
}

// deriv evaluates y′ at state into out, which must not alias it: layer li
// reads layers li±1 of state. A missing neighbour's term is skipped, not
// added as zero, so the interior and bottom layers have loops of their
// own, and the top layer adds its lower neighbour's term in a second
// pass, which a single layer skips. Each element sees the same
// operations in the same order in every case.
func (h *heun) deriv(state, out []float32) {
	s, l := h.s, h.l
	// Reslicing to the one length lets the compiler drop the inner loops'
	// bounds checks.
	decay := h.decay[:s]
	layer := func(b []float32, li int) []float32 { return b[li*s:][:s] }
	cur, o := layer(state, 0), layer(out, 0)
	for si, c := range cur {
		o[si] = -decay[si] * c
	}
	if l > 1 {
		dn := layer(state, 1)
		for si, c := range cur {
			o[si] += 0.1 * (dn[si] - c)
		}
		for li := 1; li < l-1; li++ {
			up, cur, dn, o := layer(state, li-1), layer(state, li), layer(state, li+1), layer(out, li)
			for si, c := range cur {
				v := -decay[si] * c
				v += 0.1 * (up[si] - c)
				v += 0.1 * (dn[si] - c)
				o[si] = v
			}
		}
		up, cur, o := layer(state, l-2), layer(state, l-1), layer(out, l-1)
		for si, c := range cur {
			v := -decay[si] * c
			v += 0.1 * (up[si] - c)
			o[si] = v
		}
	}
}

// point advances y, one point's column indexed [layer][species], by
// chemSubsteps Heun steps in place.
func (h *heun) point(y []float32) {
	f, pred, corr := h.f[:len(y)], h.pred[:len(y)], h.corr[:len(y)]
	for step := 0; step < chemSubsteps; step++ {
		h.deriv(y, f)
		for i, v := range y {
			pred[i] = v + chemDT*f[i]
		}
		h.deriv(pred, corr)
		for i := range y {
			y[i] += chemDT * 0.5 * (f[i] + corr[i])
		}
	}
}

// chemOps is the op count of one chemistry phase: chemSubsteps Heun
// steps over every owned point's l×s column, known before they run.
func (st *state) chemOps() float64 {
	return float64(st.np) * float64(chemSubsteps*st.p.Layers*st.p.Species*12)
}

// chemistry runs the chemistry / vertical transport phase over every
// owned grid point.
func (st *state) chemistry() {
	n := st.p.Layers * st.p.Species
	for o := 0; o < len(st.points); o += n {
		st.chem.point(st.points[o : o+n])
	}
}

// Run executes the AIRSHED skeleton on worker w and returns the worker's
// owned layers after the final hour, indexed [ownedLayer][species][grid].
func Run(w *fx.Worker, p Params) [][][]float32 {
	llo, lhi := fx.BlockRange(p.Layers, w.P, w.Rank)
	glo, ghi := fx.BlockRange(p.Grid, w.P, w.Rank)
	st := newState(p, llo, lhi-llo, ghi-glo)
	fwd, rev := st.parts(w.P)

	// The local phases' arithmetic runs beside their charge (DESIGN.md
	// §8 "Kernel numerics"): each op count is known from structure before
	// the work, and the work touches only this rank's state. Each
	// transpose's pack and unpack ride with the phase on either side.
	var (
		lus []*linalg.BandedLU
		got [][]byte // the last AllToAll's parts, by source rank
	)
	transportThenPack := func() {
		st.transport(lus)
		st.packForward(fwd)
	}
	chemistry := func() {
		st.unpackForward(got)
		st.chemistry()
		st.packReverse(rev)
	}
	unpackThenTransport := func() {
		st.unpackReverse(got)
		st.transport(lus)
	}
	tag := tagBase
	for hour := 0; hour < p.Hours; hour++ {
		// Preprocessing: assemble and factor stiffness per owned layer.
		// Synchronous: the factor's op count depends on its values.
		var preOps float64
		lus, preOps = st.factor(hour)
		w.Compute("airshed.factor", preOps)

		for step := 0; step < p.Steps; step++ {
			// Horizontal transport (by-layer, local).
			w.ComputeWith("airshed.solve", st.transportOps(lus), transportThenPack)

			// Transpose to by-grid distribution.
			got = w.AllToAll(tag, fwd)
			tag += w.P

			// Chemistry / vertical transport (by-grid, local).
			w.ComputeWith("airshed.chem", st.chemOps(), chemistry)

			// Reverse transpose back to by-layer.
			got = w.AllToAll(tag, rev)
			tag += w.P

			// Second horizontal transport.
			w.ComputeWith("airshed.solve", st.transportOps(lus), unpackThenTransport)
		}
	}
	return st.layers()
}
