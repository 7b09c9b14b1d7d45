package stats

import "math"

// identityWork is the pairs × bins at and above which MeanPairwisePearson
// sums its pairs through the identity rather than one at a time. Below
// it the naive fold costs a few milliseconds at most; only the 64-host
// fabric (K = 4032) and the paper-scale AIRSHED (K = 12, 100 hours)
// reach it.
const identityWork = 1 << 20

// MeanPairwisePearson returns the mean of PearsonR(series[i], series[j])
// over all pairs i < j.
//
// Below identityWork pairs × bins it is that naive fold, PearsonR summed
// in (i, j) order, to the last bit. At or above it, each series is
// z-normalized once, zᵢ = dᵢ/‖dᵢ‖ for dᵢ its deviations from its mean
// (as PearsonR computes them), and the pairs are summed through
// Σ_{i<j} zᵢ·zⱼ = (‖Σᵢ zᵢ‖² − Σᵢ ‖zᵢ‖²)/2: one pass over the series into
// one n-vector, O(K·n) work where the fold is O(K²·n). That result is
// within 1e-12 of the fold, not bit-identical to it.
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
	var sum float64
	if pairs*n < identityWork {
		for i, a := range series {
			for _, b := range series[i+1:] {
				sum += PearsonR(a, b)
			}
		}
		return sum / float64(pairs)
	}
	total := make([]float64, n) // Σᵢ zᵢ
	var self float64            // Σᵢ ‖zᵢ‖²
	for _, s := range series {
		if len(s) != n {
			panic("stats: MeanPairwisePearson length mismatch")
		}
		mean := Mean(s)
		var ss float64
		for _, x := range s {
			ss += (x - mean) * (x - mean)
		}
		if ss != 0 { // a constant series adds 0 to every one of its pairs
			inv := 1 / math.Sqrt(ss)
			for t, x := range s {
				z := (x - mean) * inv
				total[t] += z
				self += z * z
			}
		}
	}
	for _, z := range total {
		sum += z * z
	}
	return (sum - self) / 2 / float64(pairs)
}
