package linalg

import "fmt"

// The banded factor and backsolve as they stood before the slice-indexed
// kernels, bodies verbatim (per-element At/Set/Add, flops counted one
// float add at a time). They are the bit-identity reference: the kernels
// in linalg.go must reproduce their factor data, solutions and flop
// counts exactly, because AIRSHED's op counts set virtual time.

type legacyBandedLU struct {
	N, Band     int
	lu          *Banded
	FactorFlops float64
}

func legacyFactorBanded(a *Banded) (*legacyBandedLU, error) {
	lu := NewBanded(a.N, a.Band)
	copy(lu.Data, a.Data)
	f := &legacyBandedLU{N: a.N, Band: a.Band, lu: lu}
	for col := 0; col < a.N; col++ {
		piv := lu.At(col, col)
		if piv == 0 {
			return nil, fmt.Errorf("linalg: zero pivot at %d", col)
		}
		for r := col + 1; r <= min(a.N-1, col+a.Band); r++ {
			m := lu.At(r, col) / piv
			lu.Set(r, col, m)
			f.FactorFlops++
			if m == 0 {
				continue
			}
			for j := col + 1; j <= min(a.N-1, col+a.Band); j++ {
				lu.Add(r, j, -m*lu.At(col, j))
				f.FactorFlops += 2
			}
		}
	}
	return f, nil
}

func (f *legacyBandedLU) Solve(b []float64) (x []float64, flops float64) {
	if len(b) != f.N {
		panic("linalg: banded Solve dimension mismatch")
	}
	x = append([]float64(nil), b...)
	for i := 1; i < f.N; i++ {
		lo := max(0, i-f.Band)
		var s float64
		for j := lo; j < i; j++ {
			s += f.lu.At(i, j) * x[j]
			flops += 2
		}
		x[i] -= s
	}
	for i := f.N - 1; i >= 0; i-- {
		hi := min(f.N-1, i+f.Band)
		var s float64
		for j := i + 1; j <= hi; j++ {
			s += f.lu.At(i, j) * x[j]
			flops += 2
		}
		x[i] = (x[i] - s) / f.lu.At(i, i)
		flops += 2
	}
	return x, flops
}
