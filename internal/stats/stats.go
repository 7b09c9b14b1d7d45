// Package stats provides the descriptive statistics used throughout the
// traffic analysis: min/max/mean/standard deviation summaries, quantiles,
// and a histogram modality detector used to verify the paper's
// "trimodal packet size distribution" observation.
package stats

import (
	"math"
	"sort"
)

// Summary holds the four statistics the paper tabulates for packet sizes
// and interarrival times (figures 3, 4, 8, 9).
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	SD   float64 // population standard deviation
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary
// with N == 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.SD = math.Sqrt(ss / float64(len(xs)))
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
}

// Total returns the number of in-range samples.
func (h *Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Modes returns the indices of local maxima whose count is at least
// minFrac of the total in-range count, in descending count order. Adjacent
// equal-count bins count as one mode (the leftmost index is reported,
// bin 0 included).
// This is how we verify the trimodality the paper reports for SOR, 2DFFT
// and HIST packet sizes.
func (h *Histogram) Modes(minFrac float64) []int {
	total := h.Total()
	if total == 0 {
		return nil
	}
	min := int(minFrac * float64(total))
	var modes []int
	for i, c := range h.Counts {
		if c == 0 || c < min {
			continue
		}
		// Strictly greater than the bin before it, so a plateau reports
		// only its leftmost bin, and at least as large as the next
		// differing neighbor.
		if i > 0 && h.Counts[i-1] >= c {
			continue
		}
		right := i + 1
		for right < len(h.Counts) && h.Counts[right] == c {
			right++
		}
		if right < len(h.Counts) && h.Counts[right] > c {
			continue
		}
		modes = append(modes, i)
	}
	sort.Slice(modes, func(a, b int) bool {
		if h.Counts[modes[a]] != h.Counts[modes[b]] {
			return h.Counts[modes[a]] > h.Counts[modes[b]]
		}
		return modes[a] < modes[b]
	})
	return modes
}

// RMSE returns the root-mean-square error between a and b, which must have
// equal length.
func RMSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: RMSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(a)))
}

// NRMSE returns RMSE normalized by the range (max−min) of a, or 0 when a
// is constant.
func NRMSE(a, b []float64) float64 {
	s := Summarize(a)
	if s.Max == s.Min {
		return 0
	}
	return RMSE(a, b) / (s.Max - s.Min)
}

// PearsonR returns the Pearson correlation coefficient of a and b, or 0
// when either is constant.
func PearsonR(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: PearsonR length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	return pearson(sab, saa, sbb)
}

// pearson finishes a correlation from the centred cross product sab and
// the two centred sums of squares: 0 when either series is constant.
func pearson(sab, saa, sbb float64) float64 {
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// HurstAggVar estimates the Hurst exponent of a stationary series by the
// aggregated-variance method: for block size m, the variance of the
// m-aggregated means of a self-similar process scales as m^(2H−2). The
// slope β of log Var against log m gives H = 1 + β/2. Short-range-
// dependent traffic yields H ≈ 0.5; the self-similar LAN/video traffic of
// the QoS literature yields H in (0.7, 0.95). A strongly periodic series
// falls below 0.5 only once the record spans many periods, so that the
// largest scales average whole periods away; over a few periods it
// reads between the two (the 2DFFT's 10 ms bandwidth, period 2.28 s,
// reads 0.61–0.67). It overstates H at light tails: superposed Pareto
// on/off sources of tail index α, whose H is (3 − α)/2, read 0.83–0.88
// at α = 1.2 (H = 0.90) and 0.77–0.83 at α = 1.4 (0.80), but 0.66–0.73
// at α = 1.8 (0.60), n = 2¹⁶: weak long-range dependence reads up to
// 0.13 too high. Returns 0.5 when the series is too short or constant.
func HurstAggVar(series []float64, scales []int) float64 {
	if len(scales) == 0 {
		// Default: octave scales while at least 8 blocks remain, so slow
		// periodicities (which only cancel at scales beyond their period)
		// are seen.
		for m := 1; len(series)/m >= 8; m *= 2 {
			scales = append(scales, m)
		}
	}
	var logM, logV []float64
	for _, m := range scales {
		if m < 1 || len(series)/m < 4 {
			continue
		}
		nBlocks := len(series) / m
		means := make([]float64, nBlocks)
		for b := 0; b < nBlocks; b++ {
			var s float64
			for i := b * m; i < (b+1)*m; i++ {
				s += series[i]
			}
			means[b] = s / float64(m)
		}
		v := Summarize(means).SD
		if v <= 0 {
			continue
		}
		logM = append(logM, math.Log(float64(m)))
		logV = append(logV, 2*math.Log(v))
	}
	if len(logM) < 3 {
		return 0.5
	}
	beta := slope(logM, logV)
	h := 1 + beta/2
	if h < 0 {
		h = 0
	}
	if h > 1 {
		h = 1
	}
	return h
}

// slope computes the least-squares slope of y against x.
func slope(x, y []float64) float64 {
	mx, my := Mean(x), Mean(y)
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// CoV is the coefficient of variation (SD/mean), or 0 for a zero mean.
func CoV(xs []float64) float64 {
	s := Summarize(xs)
	if s.Mean == 0 {
		return 0
	}
	return s.SD / math.Abs(s.Mean)
}
