package kernels

import "fxnet/internal/fx"

const tfftTagBase = 200000

// tfftScale is the factor the m-th matrix of the T2DFFT pipeline's input
// stream applies to the 2DFFT input: element (i, j) of matrix m is
// initComplex(i, j, n) · tfftScale(m).
func tfftScale(m int) complex64 {
	return complex64(complex(1+0.01*float64(m%7), 0))
}

// T2DFFT runs the pipelined, task-parallel 2D FFT: the first P/2 ranks
// perform row FFTs on a stream of matrices and ship the results to the
// second P/2 ranks, which perform the column FFTs. This is the paper's
// partition pattern.
//
// Unlike the other kernels, the message for each receiver is packed as a
// list of fragments (a few matrix rows per pack) with no intermediate
// copy loop, so PVM hands each fragment to the socket separately — the
// mechanism the paper identifies behind T2DFFT's smeared packet sizes and
// noisier spectra.
//
// Receivers return their owned columns of the final matrix; senders
// return nil.
func T2DFFT(w *fx.Worker, p Params) [][]complex64 {
	checkRank(w, "t2dfft", 2)
	if w.P%2 != 0 {
		panic("kernels: t2dfft requires even P")
	}
	n := p.N
	half := w.P / 2

	if w.Rank < half {
		// Sender: row FFTs, then partitioned sends.
		s := w.Rank
		rlo, rhi := fx.BlockRange(n, half, s)
		input := initRows(rlo, rhi, n)
		rows := newMatrix(len(input), n)
		tmp := make([]complex128, n)
		for m := 0; m < p.Iters; m++ {
			scale := tfftScale(m)
			for r, row := range rows {
				for j, v := range input[r] {
					row[j] = v * scale
				}
				fftRow(row, tmp)
			}
			w.Compute("tfft.flop", float64(len(rows))*fftFlops(n))

			for q := 0; q < half; q++ {
				qlo, qhi := fx.BlockRange(n, half, q)
				recvCols := qhi - qlo
				// Fragment granularity: a few rows per pack, ~4 KB.
				rowsPerFrag := 4096 / (8 * recvCols)
				if rowsPerFrag < 1 {
					rowsPerFrag = 1
				}
				var frags [][]byte
				for r0 := 0; r0 < len(rows); r0 += rowsPerFrag {
					r1 := min(r0+rowsPerFrag, len(rows))
					block := make([]complex64, 0, (r1-r0)*recvCols)
					for r := r0; r < r1; r++ {
						block = append(block, rows[r][qlo:qhi]...)
					}
					frags = append(frags, fx.EncodeComplex64s(block))
				}
				w.SendFrags(half+q, tfftTagBase+m, frags)
			}
		}
		return nil
	}

	// Receiver: assemble columns, column FFTs.
	q := w.Rank - half
	clo, chi := fx.BlockRange(n, half, q)
	myCols := chi - clo
	cols := newMatrix(myCols, n)
	tmp := make([]complex128, n)
	// Each sender's block decodes into one scratch, sized for the largest
	// (sender 0's rows × my columns) and reused block after block.
	lo0, hi0 := fx.BlockRange(n, half, 0)
	scratch := make([]complex64, (hi0-lo0)*myCols)
	for m := 0; m < p.Iters; m++ {
		w.Phase("partition-exchange")
		for s := 0; s < half; s++ {
			rlo, rhi := fx.BlockRange(n, half, s)
			block := scratch[:(rhi-rlo)*myCols]
			fx.DecodeComplex64s(block, w.Recv(s, tfftTagBase+m))
			idx := 0
			for i := rlo; i < rhi; i++ {
				for c := 0; c < myCols; c++ {
					cols[c][i] = block[idx]
					idx++
				}
			}
		}
		for _, col := range cols {
			fftRow(col, tmp)
		}
		w.Compute("tfft.flop", float64(myCols)*fftFlops(n))
	}
	if p.Iters <= 0 {
		return nil
	}
	return cols
}
