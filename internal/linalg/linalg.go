// Package linalg provides the small dense and banded linear algebra the
// AIRSHED substrate needs: matrices, LU factorization with partial
// pivoting, triangular solves, and a banded (skyline-free) variant used
// for the per-layer finite-element stiffness systems that AIRSHED factors
// once per simulated hour and backsolves l×s times per transport phase.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec shape %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// LU is a dense LU factorization PA = LU with partial pivoting.
type LU struct {
	lu   *Matrix
	perm []int
	sign int
}

// Factor computes the LU factorization of square matrix a, leaving a
// unchanged. It returns an error if the matrix is singular to working
// precision.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Factor of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f := &LU{lu: a.Clone(), perm: make([]int, n), sign: 1}
	for i := range f.perm {
		f.perm[i] = i
	}
	lu := f.lu
	for col := 0; col < n; col++ {
		// Partial pivot.
		p, max := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > max {
				p, max = r, v
			}
		}
		if max == 0 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		if p != col {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[col*n+j] = lu.Data[col*n+j], lu.Data[p*n+j]
			}
			f.perm[p], f.perm[col] = f.perm[col], f.perm[p]
			f.sign = -f.sign
		}
		piv := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			m := lu.At(r, col) / piv
			lu.Set(r, col, m)
			if m == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Data[r*n+j] -= m * lu.Data[col*n+j]
			}
		}
	}
	return f, nil
}

// Solve performs the forward and back substitution (the paper's AIRSHED
// "backsolve") for right-hand side b, returning x with A·x = b.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("linalg: Solve dimension mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward: L has unit diagonal.
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu.Data[i*n : i*n+i]
		for j, v := range row {
			s += v * x[j]
		}
		x[i] -= s
	}
	// Back.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.Data[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / f.lu.Data[i*n+i]
	}
	return x
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.Data[i*n+i]
	}
	return d
}

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

// Add accumulates v into element (i, j).
func (b *Banded) Add(i, j int, v float64) {
	k, ok := b.idx(i, j)
	if !ok {
		panic(fmt.Sprintf("linalg: (%d,%d) outside band %d", i, j, b.Band))
	}
	b.Data[k] += v
}

// Row returns the stored diagonals of row i, aliasing the matrix:
// Row(i)[Band+d] is element (i, i+d) for d ∈ [−Band, Band]. Entries whose
// column falls outside the matrix are padding and must stay zero.
func (b *Banded) Row(i int) []float64 {
	w := 2*b.Band + 1
	return b.Data[i*w : (i+1)*w : (i+1)*w]
}

// Dense expands the banded matrix to dense form (for tests).
func (b *Banded) Dense() *Matrix {
	m := NewMatrix(b.N, b.N)
	for i := 0; i < b.N; i++ {
		for j := max(0, i-b.Band); j <= min(b.N-1, i+b.Band); j++ {
			m.Set(i, j, b.At(i, j))
		}
	}
	return m
}

// MulVec returns b·x.
func (b *Banded) MulVec(x []float64) []float64 {
	if len(x) != b.N {
		panic("linalg: banded MulVec dimension mismatch")
	}
	y := make([]float64, b.N)
	for i := 0; i < b.N; i++ {
		lo, hi := max(0, i-b.Band), min(b.N-1, i+b.Band)
		var s float64
		for j, v := range b.Row(i)[lo-i+b.Band : hi-i+b.Band+1] {
			s += v * x[lo+j]
		}
		y[i] = s
	}
	return y
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

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// AXPY computes y ← a·x + y in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}
