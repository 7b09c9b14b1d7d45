// Package linalg provides the banded linear algebra the AIRSHED substrate
// needs: a banded (skyline-free) matrix, its LU factorization and the
// triangular solves, for the per-layer finite-element stiffness systems
// that AIRSHED factors once per simulated hour and backsolves l×s times
// per transport phase. The dense LU the banded one is checked against
// lives in the tests.
package linalg

import "fmt"

// Banded is a symmetric-bandwidth banded matrix: element (i, j) is stored
// only when |i−j| ≤ Band. Rows are stored as 2·Band+1 diagonals. This is
// the natural shape of a 1D finite-element stiffness matrix and keeps the
// AIRSHED preprocessing O(n·band²) instead of O(n³).
type Banded struct {
	N, Band int
	Data    []float64 // row i, offset d∈[−Band,Band] at Data[i*(2B+1)+d+B]
}

// NewBanded allocates a zero n×n banded matrix with the given half
// bandwidth.
func NewBanded(n, band int) *Banded {
	if band < 0 || band >= n && n > 0 {
		panic("linalg: invalid bandwidth")
	}
	return &Banded{N: n, Band: band, Data: make([]float64, n*(2*band+1))}
}

func (b *Banded) idx(i, j int) (int, bool) {
	d := j - i
	if d < -b.Band || d > b.Band {
		return 0, false
	}
	return i*(2*b.Band+1) + d + b.Band, true
}

// At returns element (i, j); out-of-band elements are zero.
func (b *Banded) At(i, j int) float64 {
	if k, ok := b.idx(i, j); ok {
		return b.Data[k]
	}
	return 0
}

// Set assigns element (i, j); assigning outside the band panics.
func (b *Banded) Set(i, j int, v float64) {
	k, ok := b.idx(i, j)
	if !ok {
		panic(fmt.Sprintf("linalg: (%d,%d) outside band %d", i, j, b.Band))
	}
	b.Data[k] = v
}

// Row returns the stored diagonals of row i, aliasing the matrix:
// Row(i)[Band+d] is element (i, i+d) for d ∈ [−Band, Band]. Entries whose
// column falls outside the matrix are padding and must stay zero.
func (b *Banded) Row(i int) []float64 {
	w := 2*b.Band + 1
	return b.Data[i*w : (i+1)*w : (i+1)*w]
}

// BandedLU is an LU factorization of a banded matrix without pivoting
// (valid for the diagonally dominant stiffness systems AIRSHED builds).
//
// The flop counts it reports feed the compute-time cost model, so they
// are part of the simulated behaviour and exact; the kernels themselves
// run on raw row slices and count nothing (DESIGN.md §8 "Kernel numerics").
type BandedLU struct {
	N, Band int
	lu      []float64 // same layout as Banded.Data: L below the diagonal (unit diagonal implied), U on and above
	// FactorFlops is the floating-point operation count of the
	// factorization: one division per sub-diagonal entry plus a
	// multiply-add per updated element, with no update counted for a
	// multiplier that came out exactly zero.
	FactorFlops int
	// SolveFlops is the operation count of one backsolve: a multiply-add
	// per stored off-diagonal entry of L and U, and a subtract and a
	// divide per row.
	SolveFlops int
}

// FactorBanded factors a diagonally dominant banded matrix, leaving it
// unchanged. It returns an error on a zero pivot.
func FactorBanded(a *Banded) (*BandedLU, error) {
	n, band := a.N, a.Band
	w := 2*band + 1
	lu := append([]float64(nil), a.Data...)
	f := &BandedLU{N: n, Band: band, lu: lu}
	f.FactorFlops, f.SolveFlops = denseFlops(n, band)
	for col := 0; col < n; col++ {
		prow := lu[col*w : col*w+w]
		piv := prow[band]
		if piv == 0 {
			return nil, fmt.Errorf("linalg: zero pivot at %d", col)
		}
		k := min(band, n-1-col) // rows below, and columns right of, the pivot inside the band
		up := prow[band+1 : band+1+k]
		for r := 1; r <= k; r++ {
			// Row col+r holds column col at offset band−r.
			row := lu[(col+r)*w+band-r : (col+r)*w+band-r+1+k]
			m := row[0] / piv
			row[0] = m
			if m == 0 {
				f.FactorFlops -= 2 * k
				continue
			}
			row = row[1:]
			for j, u := range up {
				row[j] += -m * u
			}
		}
	}
	return f, nil
}

// denseFlops returns the factor and backsolve flop counts of an n×n
// matrix of half bandwidth b with no zero multiplier, in closed form.
// Column col has k = min(b, n−1−col) rows below it, each one division and
// k multiply-adds: k + 2k² summed over k < b for the last b columns, and
// n−b full columns. The backsolve touches each of the 2·Σk off-diagonal
// entries once.
func denseFlops(n, b int) (factor, solve int) {
	if n == 0 {
		return 0, 0
	}
	offDiag := (b-1)*b/2 + (n-b)*b // Σ_col k, the entries of L (and of U)
	factor = offDiag + (b-1)*b*(2*b-1)/3 + (n-b)*2*b*b
	solve = 4*offDiag + 2*n
	return factor, solve
}

// Solve backsolves for one right-hand side. It also reports the flop
// count of the solve for the cost model.
func (f *BandedLU) Solve(b []float64) (x []float64, flops float64) {
	x = append([]float64(nil), b...)
	f.SolveInPlace(x)
	return x, float64(f.SolveFlops)
}

// SolveInPlace overwrites the right-hand side x with the solution of
// A·x = b: the forward substitution through L, then the back
// substitution through U (the paper's AIRSHED "backsolve").
func (f *BandedLU) SolveInPlace(x []float64) {
	n, band := f.N, f.Band
	if len(x) != n {
		panic("linalg: banded Solve dimension mismatch")
	}
	w := 2*band + 1
	for i := 1; i < n; i++ {
		k := min(band, i)
		row := f.lu[i*w+band-k : i*w+band]
		xs := x[i-k : i]
		var s float64
		for j, v := range row {
			s += v * xs[j]
		}
		x[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		k := min(band, n-1-i)
		row := f.lu[i*w+band : i*w+band+1+k]
		diag, up := row[0], row[1:]
		xs := x[i+1 : i+1+k]
		var s float64
		for j, v := range up {
			s += v * xs[j]
		}
		x[i] = (x[i] - s) / diag
	}
}

// SolveBatch overwrites every right-hand side in xs with its solution.
// Each substitution is one loop-carried chain (x[i] waits for x[i−1]), so
// the right-hand sides are taken four at a time and the four chains
// interleaved to overlap their latencies; every right-hand side still
// sees exactly SolveInPlace's operations in SolveInPlace's order, so the
// results are bit-identical to solving one by one. A tail of fewer than
// four goes through SolveInPlace.
func (f *BandedLU) SolveBatch(xs [][]float64) {
	for ; len(xs) >= 4; xs = xs[4:] {
		f.solve4(xs[0], xs[1], xs[2], xs[3])
	}
	for _, x := range xs {
		f.SolveInPlace(x)
	}
}

func (f *BandedLU) solve4(x0, x1, x2, x3 []float64) {
	n, band := f.N, f.Band
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic("linalg: banded Solve dimension mismatch")
	}
	w := 2*band + 1
	for i := 1; i < n; i++ {
		k := min(band, i)
		row := f.lu[i*w+band-k : i*w+band]
		a0, a1, a2, a3 := x0[i-k:i], x1[i-k:i], x2[i-k:i], x3[i-k:i]
		var s0, s1, s2, s3 float64
		for j, v := range row {
			s0 += v * a0[j]
			s1 += v * a1[j]
			s2 += v * a2[j]
			s3 += v * a3[j]
		}
		x0[i] -= s0
		x1[i] -= s1
		x2[i] -= s2
		x3[i] -= s3
	}
	for i := n - 1; i >= 0; i-- {
		k := min(band, n-1-i)
		row := f.lu[i*w+band : i*w+band+1+k]
		diag, up := row[0], row[1:]
		a0, a1, a2, a3 := x0[i+1:i+1+k], x1[i+1:i+1+k], x2[i+1:i+1+k], x3[i+1:i+1+k]
		var s0, s1, s2, s3 float64
		for j, v := range up {
			s0 += v * a0[j]
			s1 += v * a1[j]
			s2 += v * a2[j]
			s3 += v * a3[j]
		}
		x0[i] = (x0[i] - s0) / diag
		x1[i] = (x1[i] - s1) / diag
		x2[i] = (x2[i] - s2) / diag
		x3[i] = (x3[i] - s3) / diag
	}
}
