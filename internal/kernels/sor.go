package kernels

import "fxnet/internal/fx"

// sorOmega is the relaxation weight. The update is a weighted-Jacobi
// relaxation ("each element computes its next value as a function of its
// neighboring elements"): every element reads only previous-step values,
// which is what makes the block-row parallelization need exactly one
// boundary-row exchange per step — the paper's neighbor pattern.
const sorOmega = 0.9

// sorTagBase spaces per-iteration message tags.
const sorTagBase = 1000

// SOR runs the successive-overrelaxation kernel on worker w and returns
// the worker's owned rows after p.Iters steps (each row of length p.N,
// float32 as Fx REAL*4). Rows are block-distributed; the outermost ring
// of the global matrix is a fixed boundary.
func SOR(w *fx.Worker, p Params) [][]float32 {
	checkRank(w, "sor", 2)
	n := p.N
	lo, hi := fx.BlockRange(n, w.P, w.Rank)
	rows := hi - lo

	// Owned rows plus one halo row on each interior side.
	cur := make([][]float32, rows)
	next := make([][]float32, rows)
	for r := 0; r < rows; r++ {
		cur[r] = make([]float32, n)
		next[r] = make([]float32, n)
		for j := 0; j < n; j++ {
			cur[r][j] = float32(initValue(lo+r, j, n))
		}
	}
	haloUp := make([]float32, n)   // row lo-1, from rank-1
	haloDown := make([]float32, n) // row hi, from rank+1

	for it := 0; it < p.Iters; it++ {
		// Communication phase: exchange boundary rows with neighbors.
		tag := sorTagBase + it
		fromPrev, fromNext := w.NeighborExchange(tag,
			fx.EncodeFloat32s(cur[0]), fx.EncodeFloat32s(cur[rows-1]))
		if fromPrev != nil {
			fx.DecodeFloat32s(haloUp, fromPrev)
		}
		if fromNext != nil {
			fx.DecodeFloat32s(haloDown, fromNext)
		}

		// Local computation phase: relax interior points.
		updates := 0
		for r := 0; r < rows; r++ {
			gi := lo + r
			if gi == 0 || gi == n-1 {
				copy(next[r], cur[r]) // fixed boundary rows
				continue
			}
			up := haloUp
			if r > 0 {
				up = cur[r-1]
			}
			down := haloDown
			if r < rows-1 {
				down = cur[r+1]
			}
			row := cur[r]
			dst := next[r]
			dst[0], dst[n-1] = row[0], row[n-1]
			for j := 1; j < n-1; j++ {
				avg := 0.25 * (up[j] + down[j] + row[j-1] + row[j+1])
				dst[j] = (1-sorOmega)*row[j] + sorOmega*avg
				updates++
			}
		}
		w.Compute("sor.update", float64(updates))
		cur, next = next, cur
	}
	return cur
}
