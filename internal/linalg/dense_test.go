package linalg

import (
	"fmt"
	"math"
)

// The dense matrix and its partially pivoted LU: the reference the
// banded factorization is checked against.

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

// Add accumulates v into element (i, j).
func (b *Banded) Add(i, j int, v float64) {
	k, ok := b.idx(i, j)
	if !ok {
		panic(fmt.Sprintf("linalg: (%d,%d) outside band %d", i, j, b.Band))
	}
	b.Data[k] += v
}

// Dense expands the banded matrix to dense form.
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
