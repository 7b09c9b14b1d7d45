package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveMeanPairwise is the reference MeanPairwisePearson must equal to
// the last bit below identityWork, and within 1e-12 above it: PearsonR
// folded over i < j in order.
func naiveMeanPairwise(series [][]float64) float64 {
	var sum float64
	var count int
	for i := range series {
		for j := i + 1; j < len(series); j++ {
			sum += PearsonR(series[i], series[j])
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// pairwiseCase draws k series of n bins. Each series is one of: byte
// counts in sparse bursts (what the analysis feeds the kernel), dense
// noise, a constant, all zeros, or a copy of an earlier series.
func pairwiseCase(r *rand.Rand, k, n int) [][]float64 {
	series := make([][]float64, k)
	for i := range series {
		s := make([]float64, n)
		switch kind := r.Intn(8); {
		case kind < 3:
			for t := range s {
				if r.Intn(4) == 0 {
					s[t] = float64(r.Intn(1<<20)) * 1518
				}
			}
		case kind < 5:
			for t := range s {
				s[t] = r.NormFloat64() * 1e6
			}
		case kind == 5:
			c := r.Float64() * 1e9
			for t := range s {
				s[t] = c
			}
		case kind == 6:
			// all zeros
		case i > 0:
			copy(s, series[r.Intn(i)])
		}
		series[i] = s
	}
	return series
}

func checkPairwise(t *testing.T, seed int64, k, n int) {
	t.Helper()
	series := pairwiseCase(rand.New(rand.NewSource(seed)), k, n)
	if got, want := MeanPairwisePearson(series), naiveMeanPairwise(series); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("seed=%d k=%d n=%d: kernel %v (%#x), naive fold %v (%#x)",
			seed, k, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestMeanPairwisePearsonMatchesNaiveFold covers every K in [0, 40]
// against n from empty to longer than a cache line, all below
// identityWork, where the kernel is the naive fold to the last bit.
func TestMeanPairwisePearsonMatchesNaiveFold(t *testing.T) {
	for k := 0; k <= 40; k++ {
		for _, n := range []int{0, 1, 2, 3, 7, 16, 33, 64} {
			checkPairwise(t, int64(1000*k+n), k, n)
		}
	}
}

func TestMeanPairwisePearsonDegenerate(t *testing.T) {
	ramp := []float64{1, 2, 3, 4}
	flat := []float64{5, 5, 5, 5}
	zero := []float64{0, 0, 0, 0}
	for _, c := range []struct {
		name   string
		series [][]float64
		want   float64
	}{
		{"none", nil, 0},
		{"one", [][]float64{ramp}, 0},
		{"empty bins", [][]float64{{}, {}, {}}, 0},
		{"constant and zero", [][]float64{flat, zero, flat}, 0},
		// The constant series' two pairs contribute 0 but still count.
		{"constant counted", [][]float64{ramp, flat, ramp}, 1.0 / 3},
		{"listed twice", [][]float64{ramp, ramp}, 1},
	} {
		if got := MeanPairwisePearson(c.series); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged series did not panic")
		}
	}()
	MeanPairwisePearson([][]float64{ramp, ramp[:3]})
}

func FuzzMeanPairwisePearson(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(5), uint8(64))
	f.Add(int64(3), uint8(40), uint8(1))
	f.Add(int64(4), uint8(39), uint8(21))
	f.Fuzz(func(t *testing.T, seed int64, k, n uint8) {
		checkPairwise(t, seed, int(k%41), int(n%65))
	})
}

// checkIdentity holds the identity to the naive fold: within 1e-12.
func checkIdentity(t *testing.T, what string, series [][]float64) {
	t.Helper()
	if k, n := len(series), len(series[0]); k*(k-1)/2*n < identityWork {
		t.Fatalf("%s: k=%d n=%d is below identityWork", what, k, n)
	}
	got, want := MeanPairwisePearson(series), naiveMeanPairwise(series)
	if d := math.Abs(got - want); !(d <= 1e-12) {
		t.Errorf("%s: identity %.17g, naive fold %.17g, |Δ| = %.3g > 1e-12", what, got, want, d)
	}
}

// TestMeanPairwisePearsonIdentityMatchesNaiveFold: at and above
// identityWork the identity stays within 1e-12 of the naive fold. K = 300
// and 301 at n = 105 are the smallest mixed cases above the rule; the
// noise case has a mean correlation near zero, where the two sums of
// the identity cancel, and the common-signal case one near 1, where
// Σᵢ zᵢ is largest; K = 4032 is fabric_topo64's connection count with
// constant, all-zero and duplicated series mixed in; at n = 1 every
// series is constant.
func TestMeanPairwisePearsonIdentityMatchesNaiveFold(t *testing.T) {
	for _, k := range []int{300, 301} {
		checkIdentity(t, fmt.Sprintf("k=%d n=105", k),
			pairwiseCase(rand.New(rand.NewSource(int64(1000*k+105))), k, 105))
	}
	r := rand.New(rand.NewSource(5))
	noise := make([][]float64, 400)
	for i := range noise {
		noise[i] = make([]float64, 105)
		for t := range noise[i] {
			noise[i][t] = r.NormFloat64()
		}
	}
	checkIdentity(t, "independent noise", noise)
	common := append([]float64(nil), noise[0]...)
	for i := range noise {
		for t := range noise[i] {
			noise[i][t] = common[t]*1e3 + r.NormFloat64()
		}
	}
	checkIdentity(t, "one common signal", noise)
	checkIdentity(t, "k=4032 n=105", pairwiseCase(rand.New(rand.NewSource(42)), 4032, 105))
	checkIdentity(t, "k=1449 n=1", pairwiseCase(rand.New(rand.NewSource(1)), 1449, 1))
}

// TestMeanPairwisePearsonInlineAllocs: below identityWork the fold
// allocates nothing; at or above it, the identity allocates its one
// n-vector.
func TestMeanPairwisePearsonInlineAllocs(t *testing.T) {
	for _, c := range []struct {
		k, n   int
		allocs float64
	}{{64, 105, 0}, {300, 105, 1}} {
		series := pairwiseCase(rand.New(rand.NewSource(7)), c.k, c.n)
		if a := testing.AllocsPerRun(20, func() { sinkF = MeanPairwisePearson(series) }); a > c.allocs {
			t.Errorf("k=%d n=%d: %v allocations per call, want ≤ %v", c.k, c.n, a, c.allocs)
		}
	}
}

var sinkF float64

// BenchmarkMeanPairwisePearson runs the identity at the fabric_topo64
// shape (64×63 connections, 105 correlation bins) and the naive fold at
// the smoke fabric's 56 connections.
func BenchmarkMeanPairwisePearson(b *testing.B) {
	for _, k := range []int{4032, 56} {
		series := pairwiseCase(rand.New(rand.NewSource(42)), k, 105)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkF = MeanPairwisePearson(series)
			}
		})
	}
}
