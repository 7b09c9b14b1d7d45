package kernels

import (
	"math"

	"fxnet/internal/dsp"
	"fxnet/internal/fx"
)

const fftTagBase = 100000

// fftFlops is the standard 5·N·log2(N) operation count for one length-N
// complex FFT.
func fftFlops(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}

// fftRow transforms one row of complex64 data in place via the complex128
// FFT, rounding back to COMPLEX*8 as the Fx program stores it; tmp is the
// caller's widening scratch, len(row) long, reused row after row and
// transformed in place, so a power-of-two row allocates nothing. The
// sequential references use the same helper, so results match exactly.
func fftRow(row []complex64, tmp []complex128) {
	for i, v := range row {
		tmp[i] = complex128(v)
	}
	dsp.FFTInPlace(tmp)
	for i, v := range tmp {
		row[i] = complex64(v)
	}
}

// initComplex is the deterministic 2DFFT input.
func initComplex(i, j, n int) complex64 {
	return complex64(complex(initValue(i, j, n), initValue(j, i, n)-0.5))
}

// initRows returns rows [lo, hi) of the n×n 2DFFT input.
func initRows(lo, hi, n int) [][]complex64 {
	rows := make([][]complex64, hi-lo)
	for r := range rows {
		rows[r] = make([]complex64, n)
		for j := range rows[r] {
			rows[r][j] = initComplex(lo+r, j, n)
		}
	}
	return rows
}

// newMatrix returns k zeroed rows (or columns) of length n.
func newMatrix(k, n int) [][]complex64 {
	m := make([][]complex64, k)
	for i := range m {
		m[i] = make([]complex64, n)
	}
	return m
}

// FFT2D runs the data-parallel two-dimensional FFT: local row FFTs, an
// all-to-all redistribution from block-rows to block-columns, then local
// column FFTs. It returns the worker's owned columns of the final
// iteration (each column of length p.N). This is the paper's all-to-all
// kernel: every rank sends an O((N/P)²)-element block to every other
// rank, every iteration.
func FFT2D(w *fx.Worker, p Params) [][]complex64 {
	checkRank(w, "2dfft", 2)
	n := p.N
	rlo, rhi := fx.BlockRange(n, w.P, w.Rank)
	clo, chi := rlo, rhi // column distribution mirrors the row distribution
	myCols := chi - clo

	// The same input every iteration (the kernel benchmark re-runs the
	// same transform; Fx's test harness does the same), built once and
	// copied into the rows each iteration transforms in place.
	input := initRows(rlo, rhi, n)
	rows := newMatrix(len(input), n)
	cols := newMatrix(myCols, n)
	tmp := make([]complex128, n)
	// One encoding buffer holds every part of an iteration back to back
	// and is reused by the next: the 2DFFT's copy-loop Send copies a body
	// before it returns, and this rank's own part is decoded below,
	// before the next iteration overwrites it.
	enc := make([]byte, 0, 8*len(rows)*n)
	parts := make([][]byte, w.P)
	// Every received part decodes into one scratch block, sized for the
	// largest (rank 0's rows × my columns) and reused part after part.
	lo0, hi0 := fx.BlockRange(n, w.P, 0)
	scratch := make([]complex64, (hi0-lo0)*myCols)
	for it := 0; it < p.Iters; it++ {
		// Phase 1: local FFT over each owned row.
		for r, row := range rows {
			copy(row, input[r])
			fftRow(row, tmp)
		}
		w.Compute("fft.flop", float64(len(rows))*fftFlops(n))

		// Communication phase: all-to-all transpose. Part q carries, for
		// each owned row, the slice of columns rank q will own.
		enc = enc[:0]
		for q := 0; q < w.P; q++ {
			qlo, qhi := fx.BlockRange(n, w.P, q)
			start := len(enc)
			for _, row := range rows {
				enc = fx.AppendComplex64s(enc, row[qlo:qhi])
			}
			parts[q] = enc[start:len(enc):len(enc)]
		}
		got := w.AllToAll(fftTagBase+it*w.P, parts)

		// Assemble owned columns: cols[c][i] = element (row i, col clo+c);
		// the blocks cover every i, so each iteration overwrites them all.
		for q := 0; q < w.P; q++ {
			qlo, qhi := fx.BlockRange(n, w.P, q)
			block := scratch[:(qhi-qlo)*myCols]
			fx.DecodeComplex64s(block, got[q])
			idx := 0
			for i := qlo; i < qhi; i++ {
				for c := 0; c < myCols; c++ {
					cols[c][i] = block[idx]
					idx++
				}
			}
		}

		// Phase 2: local FFT over each owned column.
		for _, col := range cols {
			fftRow(col, tmp)
		}
		w.Compute("fft.flop", float64(myCols)*fftFlops(n))
	}
	if p.Iters <= 0 {
		return nil
	}
	return cols
}

// FFT2DSequential computes the same transform single-process, with the
// same complex64 rounding discipline, returning the full matrix as
// columns (result[c][i] = element (i, c)).
func FFT2DSequential(p Params) [][]complex64 {
	n := p.N
	rows := initRows(0, n, n)
	tmp := make([]complex128, n)
	for _, row := range rows {
		fftRow(row, tmp)
	}
	cols := newMatrix(n, n)
	for c, col := range cols {
		for i := range col {
			col[i] = rows[i][c]
		}
		fftRow(col, tmp)
	}
	return cols
}
