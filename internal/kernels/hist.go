package kernels

import "fxnet/internal/fx"

// HistBins is the histogram resolution. At 256 bins the reduced vector is
// a 2 KB message, large enough to split across a maximal TCP segment plus
// a remainder — keeping HIST's packet sizes trimodal as the paper
// reports.
const HistBins = 256

const histTagBase = 400000

// HIST computes the histogram of an N×N image distributed by block rows:
// a local histogram per processor, a log2(P)-step tree reduction onto
// processor 0 (odd multiples of 2^i send to even multiples), then a
// broadcast of the complete histogram to every processor — the paper's
// tree pattern.
//
// Every rank returns the complete histogram of the final iteration.
func HIST(w *fx.Worker, p Params) []int64 {
	checkRank(w, "hist", 2)
	n := p.N
	lo, hi := fx.BlockRange(n, w.P, w.Rank)

	// The image: REAL*4 pixels in [0, 1).
	pixels := make([][]float32, hi-lo)
	for r := range pixels {
		pixels[r] = make([]float32, n)
		for j := 0; j < n; j++ {
			pixels[r][j] = float32(initValue(lo+r, j, n))
		}
	}

	var final []int64
	for it := 0; it < p.Iters; it++ {
		// Local computation phase.
		local := make([]int64, HistBins)
		for _, row := range pixels {
			for _, v := range row {
				b := int(v * HistBins)
				if b >= HistBins {
					b = HistBins - 1
				}
				local[b]++
			}
		}
		w.Compute("hist.bin", float64((hi-lo)*n))

		// Tree reduction onto rank 0.
		reduced := w.Reduce(histTagBase+2*it, fx.EncodeInt64s(local),
			func(a, b []byte) []byte {
				av, bv := fx.DecodeInt64s(a), fx.DecodeInt64s(b)
				for i := range av {
					av[i] += bv[i]
				}
				return fx.EncodeInt64s(av)
			})

		// Broadcast the complete histogram back to everyone.
		final = fx.DecodeInt64s(w.Bcast(0, histTagBase+2*it+1, reduced))
	}
	return final
}
