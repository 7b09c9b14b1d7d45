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
// time. It is even, so a 2-row tile never straddles two stripes.
const stripeRows = 64

// MeanPairwisePearson returns the mean of PearsonR(series[i], series[j])
// over all pairs i < j, bit-identical to that naive fold for any
// GOMAXPROCS: every floating-point chain keeps PearsonR's operand order.
// Each series' mean, centred deviations and sum of squared deviations
// are computed once (K passes, not K²) in the order PearsonR computes
// ma, da and saa. Each dot product Σdᵢ·dⱼ is one accumulator summed in
// bin order, and the pair terms are folded into one sum in (i, j)
// order, so no sum is ever reassociated.
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
	// One block: the deviations, the sums of squares and the inline
	// path's terms of one row pair.
	buf := make([]float64, k*n+3*k)
	m := pairMatrix{dev: buf[:k*n], ss: buf[k*n : k*n+k], n: n}
	for i, s := range series {
		if len(s) != n {
			panic("stats: MeanPairwisePearson length mismatch")
		}
		mean := Mean(s)
		d := m.row(i)
		var sq float64
		for t, x := range s {
			dx := x - mean
			d[t] = dx
			sq += dx * dx
		}
		m.ss[i] = sq
	}
	var sum float64
	if workers := runtime.GOMAXPROCS(0); workers > 1 && pairs*n >= inlineWork {
		sum = m.foldStripes(workers)
	} else {
		terms := buf[k*n+k:]
		for i := 0; i < k; i += 2 {
			sum = fold(sum, m.rowPair(i, terms))
		}
	}
	return sum / float64(pairs)
}

// pairMatrix is the centred input of the pair statistic.
type pairMatrix struct {
	dev []float64 // row i: series i minus its mean, n bins
	ss  []float64 // row i's sum of squared deviations
	n   int
}

func (m *pairMatrix) row(i int) []float64 {
	return m.dev[i*m.n : (i+1)*m.n : (i+1)*m.n]
}

// offset is the number of pair terms in the rows before row i.
func (m *pairMatrix) offset(i int) int {
	return i * (2*len(m.ss) - i - 1) / 2
}

// rowPair writes the terms of rows i and i+1 into out — row i's pairs
// (i, i+1…K−1), then row i+1's (i+1, i+2…K−1) — and returns them. The
// tile is 2 rows × 4 columns: eight dot products side by side, each with
// its own accumulator.
func (m *pairMatrix) rowPair(i int, out []float64) []float64 {
	k := len(m.ss)
	if i+1 >= k {
		return out[:0]
	}
	ss := m.ss
	d0, d1 := m.row(i), m.row(i+1)
	w := k - 1 - i
	o0, o1 := out[:w], out[w:2*w-1]
	var a float64
	for t, x := range d0 {
		a += x * d1[t]
	}
	o0[0] = pearson(a, ss[i], ss[i+1])
	j := i + 2
	for ; j+4 <= k; j += 4 {
		e0, e1, e2, e3 := m.row(j), m.row(j+1), m.row(j+2), m.row(j+3)
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		for t, x := range d0 {
			y := d1[t]
			a0 += x * e0[t]
			a1 += x * e1[t]
			a2 += x * e2[t]
			a3 += x * e3[t]
			b0 += y * e0[t]
			b1 += y * e1[t]
			b2 += y * e2[t]
			b3 += y * e3[t]
		}
		o0[j-i-1] = pearson(a0, ss[i], ss[j])
		o0[j-i] = pearson(a1, ss[i], ss[j+1])
		o0[j-i+1] = pearson(a2, ss[i], ss[j+2])
		o0[j-i+2] = pearson(a3, ss[i], ss[j+3])
		o1[j-i-2] = pearson(b0, ss[i+1], ss[j])
		o1[j-i-1] = pearson(b1, ss[i+1], ss[j+1])
		o1[j-i] = pearson(b2, ss[i+1], ss[j+2])
		o1[j-i+1] = pearson(b3, ss[i+1], ss[j+3])
	}
	for ; j < k; j++ {
		e := m.row(j)
		var a, b float64
		for t, x := range d0 {
			a += x * e[t]
			b += d1[t] * e[t]
		}
		o0[j-i-1] = pearson(a, ss[i], ss[j])
		o1[j-i-2] = pearson(b, ss[i+1], ss[j])
	}
	return out[:2*w-1]
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
				for i := r0; i < r1; i += 2 {
					m.rowPair(i, out[m.offset(i)-m.offset(r0):])
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
