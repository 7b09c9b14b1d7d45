package stats

import (
	"runtime"
	"sync"
)

// inlineWork is the pairs × bins below which MeanPairwisePearson stays
// on the calling goroutine: under about half a millisecond of dot
// products, starting and joining workers costs more than it saves.
const inlineWork = 1 << 20

// stripeRows is the number of pair-matrix rows a worker claims at a
// time. It is a multiple of 8, so a 4-row tile never straddles two
// stripes and a stripe starts on a panel.
const stripeRows = 64

// MeanPairwisePearson returns the mean of PearsonR(series[i], series[j])
// over all pairs i < j, bit-identical to that naive fold for any
// GOMAXPROCS: every floating-point chain keeps PearsonR's operand order.
// Each series' mean, centred deviations and sum of squared deviations
// are computed once (K passes, not K²) in the order PearsonR computes
// ma, da and saa. Each dot product Σdᵢ·dⱼ is one accumulator summed in
// bin order (a multiply, then an add: never fused), and the pair terms
// are folded into one sum in (i, j) order, so no sum is ever
// reassociated.
//
// Above inlineWork, with GOMAXPROCS > 1, the rows are split into
// stripes that GOMAXPROCS workers compute into per-call buffers, a
// round of one stripe each at a time; the calling goroutine joins each
// round and folds its stripes in row order.
//
// All series must have equal length (a mismatch panics, as in PearsonR).
// Degenerate inputs follow the naive fold: fewer than two series have no
// pair and return 0; a constant (or all-zero, or empty) series
// contributes 0 for each of its pairs and those pairs still count in the
// denominator; a series listed twice correlates with itself like any
// other pair.
func MeanPairwisePearson(series [][]float64) float64 {
	k := len(series)
	if k < 2 {
		return 0
	}
	n := len(series[0])
	pairs := k * (k - 1) / 2
	// One block: the panels (K padded to a multiple of 8 with zero
	// series), the sums of squares and the inline path's terms of one
	// row quad.
	size := (k + 7) / 8 * 8 * n
	buf := make([]float64, size+5*k)
	m := pairMatrix{panels: buf[:size], ss: buf[size : size+k], n: n}
	for i, s := range series {
		if len(s) != n {
			panic("stats: MeanPairwisePearson length mismatch")
		}
		mean, at := Mean(s), i/8*8*n+i%8 // series i's bin 0 in its panel
		var sq float64
		for t, x := range s {
			dx := x - mean
			m.panels[at+t*8] = dx
			sq += dx * dx
		}
		m.ss[i] = sq
	}
	var sum float64
	if workers := runtime.GOMAXPROCS(0); workers > 1 && pairs*n >= inlineWork {
		sum = m.foldStripes(workers)
	} else {
		// With no bins every term is pearson(0, 0, 0) = 0 (and the
		// panels are empty), so the sum stays 0.
		terms := buf[size+k:]
		for i := 0; n > 0 && i < k; i += 4 {
			sum = fold(sum, terms[:m.rowQuad(i, terms)])
		}
	}
	return sum / float64(pairs)
}

// pairMatrix is the centred input of the pair statistic.
type pairMatrix struct {
	// panels holds the deviations from the mean in panels of 8 series,
	// bin-major: panels[p·8n + 8t + c] is series 8p+c's deviation in
	// bin t.
	panels []float64
	ss     []float64 // series i's sum of squared deviations
	n      int
}

// offset is the number of pair terms in the rows before row i.
func (m *pairMatrix) offset(i int) int {
	return i * (2*len(m.ss) - i - 1) / 2
}

// rowQuad writes the terms of rows i…i+3 (i a multiple of 4; rows past
// K have none) into out, row by row in (i, j) order, and returns how
// many it wrote. The tile is 4 rows × 8 columns, a column panel at a
// time: 32 dot products side by side, each with its own accumulator.
// The panel on the diagonal runs the portable tile; the panels right of
// it run the AVX2 one where the CPU has it.
func (m *pairMatrix) rowQuad(i int, out []float64) int {
	k, n, ss := len(m.ss), m.n, m.ss
	p := i / 8
	rows := m.panels[p*8*n+i%8 : (p+1)*8*n]
	var acc [32]float64
	for q := p; q*8 < k; q++ {
		cols := m.panels[q*8*n : (q+1)*8*n]
		if useAVX2 && q > p {
			tileAVX2(&acc, rows, cols)
		} else {
			tilePortable(&acc, rows, cols)
		}
		o := 0 // where row i+r's terms start in out
		for r := 0; r < 4 && i+r < k; r++ {
			row := i + r
			for c := max(0, row+1-q*8); c < min(8, k-q*8); c++ {
				out[o+q*8+c-row-1] = pearson(acc[r*8+c], ss[row], ss[q*8+c])
			}
			o += k - 1 - row
		}
	}
	return m.offset(min(i+4, k)) - m.offset(i)
}

// tilePortable computes the 4 × 8 tile of rows against cols into acc:
// acc[8r+c] = Σₜ rows[8t+r]·cols[8t+c] over the len(cols)/8 bins, each
// sum one accumulator in bin order. It runs as four 2 × 4 sub-tiles,
// whose 8 accumulators fit the registers.
func tilePortable(acc *[32]float64, rows, cols []float64) {
	n := len(cols) / 8
	for s := range 4 {
		r, c := s/2*2, s%2*4
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		for t := range n {
			x, y := rows[t*8+r], rows[t*8+r+1]
			e := cols[t*8+c : t*8+c+4 : t*8+c+4]
			a0 += x * e[0]
			a1 += x * e[1]
			a2 += x * e[2]
			a3 += x * e[3]
			b0 += y * e[0]
			b1 += y * e[1]
			b2 += y * e[2]
			b3 += y * e[3]
		}
		acc[r*8+c], acc[r*8+c+1], acc[r*8+c+2], acc[r*8+c+3] = a0, a1, a2, a3
		acc[r*8+c+8], acc[r*8+c+9], acc[r*8+c+10], acc[r*8+c+11] = b0, b1, b2, b3
	}
}

// stripe returns the rows [r0, r1) of stripe s.
func (m *pairMatrix) stripe(s int) (r0, r1 int) {
	r0 = s * stripeRows
	return r0, min(r0+stripeRows, len(m.ss))
}

// foldStripes computes the stripes on workers goroutines and folds them,
// in stripe order, on the calling one. Stripes go out in rounds of
// workers; each round is joined and folded before the next starts.
func (m pairMatrix) foldStripes(workers int) float64 {
	stripes := (len(m.ss) + stripeRows - 1) / stripeRows
	workers = min(workers, stripes)
	_, r1 := m.stripe(0)
	width := m.offset(r1) // the first stripe holds the most terms
	bufs := make([]float64, workers*width)
	var sum float64
	for first := 0; first < stripes; first += workers {
		round := min(workers, stripes-first)
		var wg sync.WaitGroup
		wg.Add(round)
		for w := range round {
			go func() {
				defer wg.Done()
				out := bufs[w*width : (w+1)*width]
				r0, r1 := m.stripe(first + w)
				for i := r0; i < r1; i += 4 {
					m.rowQuad(i, out[m.offset(i)-m.offset(r0):])
				}
			}()
		}
		wg.Wait()
		for w := range round {
			r0, r1 := m.stripe(first + w)
			sum = fold(sum, bufs[w*width:w*width+m.offset(r1)-m.offset(r0)])
		}
	}
	return sum
}

// fold adds terms to sum one at a time, in order.
func fold(sum float64, terms []float64) float64 {
	for _, x := range terms {
		sum += x
	}
	return sum
}
