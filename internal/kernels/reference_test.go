package kernels

// The sequential references the distributed kernels are checked against
// (FFT2DSequential stays beside its kernel: the benchmark times it).

// SORSequential is the single-process reference: identical arithmetic in
// identical order, so the distributed result must match exactly.
func SORSequential(p Params) [][]float32 {
	n := p.N
	cur := make([][]float32, n)
	next := make([][]float32, n)
	for i := 0; i < n; i++ {
		cur[i] = make([]float32, n)
		next[i] = make([]float32, n)
		for j := 0; j < n; j++ {
			cur[i][j] = float32(initValue(i, j, n))
		}
	}
	for it := 0; it < p.Iters; it++ {
		for i := 0; i < n; i++ {
			if i == 0 || i == n-1 {
				copy(next[i], cur[i])
				continue
			}
			row := cur[i]
			dst := next[i]
			dst[0], dst[n-1] = row[0], row[n-1]
			for j := 1; j < n-1; j++ {
				avg := 0.25 * (cur[i-1][j] + cur[i+1][j] + row[j-1] + row[j+1])
				dst[j] = (1-sorOmega)*row[j] + sorOmega*avg
			}
		}
		cur, next = next, cur
	}
	return cur
}

// HISTSequential is the single-process reference.
func HISTSequential(p Params) []int64 {
	n := p.N
	hist := make([]int64, HistBins)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := float32(initValue(i, j, n))
			b := int(v * HistBins)
			if b >= HistBins {
				b = HistBins - 1
			}
			hist[b]++
		}
	}
	return hist
}

// T2DFFTSequential computes the transform of the m-th pipeline matrix
// single-process with the same rounding discipline, returned as columns.
func T2DFFTSequential(p Params, m int) [][]complex64 {
	n := p.N
	rows := initRows(0, n, n)
	scale := tfftScale(m)
	tmp := make([]complex128, n)
	for _, row := range rows {
		for j := range row {
			row[j] *= scale
		}
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
