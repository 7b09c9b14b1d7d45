package stats

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// naiveMeanPairwise is the reference MeanPairwisePearson must equal to
// the last bit: PearsonR folded over i < j in order.
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

// eachTile runs fn on the host's tile and, where that is the AVX2 one,
// once more with it off, so both tiles are held to the naive fold.
func eachTile(fn func(tile string)) {
	if !useAVX2 {
		fn("portable")
		return
	}
	fn("avx2")
	useAVX2 = false
	defer func() { useAVX2 = true }()
	fn("portable")
}

func checkPairwise(t *testing.T, seed int64, k, n int) {
	t.Helper()
	series := pairwiseCase(rand.New(rand.NewSource(seed)), k, n)
	want := naiveMeanPairwise(series)
	eachTile(func(tile string) {
		if got := MeanPairwisePearson(series); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("tile=%s seed=%d k=%d n=%d: kernel %v (%#x), naive fold %v (%#x)",
				tile, seed, k, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

// TestMeanPairwisePearsonMatchesNaiveFold covers every K in [0, 40] — all
// residues of the tile's 4 rows and 8 columns, for every first row —
// against n from empty to longer than a cache line, on both tiles.
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

// withProcs runs fn with GOMAXPROCS set to procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestMeanPairwisePearsonWorkerCountInvariance: the bits do not depend
// on how many workers share the rows. K = 300 and 301 at n = 105 sit
// above inlineWork, with a short last stripe of even and odd height and
// a short last round at 2 and 3 workers; the rest run inline.
func TestMeanPairwisePearsonWorkerCountInvariance(t *testing.T) {
	parallel := 0
	for _, k := range []int{41, 64, 65, 300, 301} {
		for _, n := range []int{1, 17, 105} {
			if k*(k-1)/2*n >= inlineWork {
				parallel++
			}
			series := pairwiseCase(rand.New(rand.NewSource(int64(1000*k+n))), k, n)
			want := math.Float64bits(naiveMeanPairwise(series))
			eachTile(func(tile string) {
				for _, procs := range []int{1, 2, 3, 8} {
					var got float64
					withProcs(procs, func() { got = MeanPairwisePearson(series) })
					if math.Float64bits(got) != want {
						t.Errorf("tile=%s k=%d n=%d GOMAXPROCS=%d: kernel %#x, naive fold %#x",
							tile, k, n, procs, math.Float64bits(got), want)
					}
				}
			})
		}
	}
	if parallel == 0 {
		t.Fatal("no case reaches the parallel path")
	}
}

// TestPairTileMatchesPortable: the AVX2 tile's 32 sums equal the
// portable tile's bit for bit, on both row offsets of a panel, for
// values whose products overflow to ±Inf (whose sums are NaN), underflow
// to subnormals or ±0, or mix signs and scales.
func TestPairTileMatchesPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 with OS YMM support on this CPU: only the portable tile runs")
	}
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1e-300,
		1e-300, 1e300, -1e300, 1e160, -1e150, 1, -1, 3.75}
	r := rand.New(rand.NewSource(41))
	// mix 0 draws only special values, mix 1 one in 16, mix 2 none.
	panel := func(n, mix int) []float64 {
		p := make([]float64, 8*n)
		for i := range p {
			if mix == 0 || mix == 1 && r.Intn(16) == 0 {
				p[i] = special[r.Intn(len(special))]
			} else {
				p[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(41)-20))
			}
		}
		return p
	}
	for _, n := range []int{0, 1, 2, 3, 7, 105, 1000} {
		for mix := range 3 {
			rows, cols := panel(n, mix), panel(n, mix)
			for _, r0 := range []int{0, 4} {
				var want, got [32]float64
				tilePortable(&want, rows[min(r0, len(rows)):], cols)
				tileAVX2(&got, rows[min(r0, len(rows)):], cols)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("n=%d mix=%d rows from %d: sum %d (row %d, column %d) is %v (%#x) on AVX2, %v (%#x) portable",
							n, mix, r0, i, i/8, i%8, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestMeanPairwisePearsonJoinsWorkers: a fabric_topo64-sized call leaves
// no goroutine behind. A worker that has signalled the join can still be
// on its way out when the call returns, so the count is given a moment
// to settle, never more.
func TestMeanPairwisePearsonJoinsWorkers(t *testing.T) {
	series := pairwiseCase(rand.New(rand.NewSource(42)), 4032, 105)
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		before := runtime.NumGoroutine()
		sinkF = MeanPairwisePearson(series)
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != before; {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines: %d before the call, %d after", before, runtime.NumGoroutine())
			}
			runtime.Gosched()
		}
	})
}

// TestMeanPairwisePearsonInlineAllocs: below inlineWork the kernel
// starts no worker and allocates only its centred block.
func TestMeanPairwisePearsonInlineAllocs(t *testing.T) {
	series := pairwiseCase(rand.New(rand.NewSource(7)), 64, 105)
	if k, n := len(series), len(series[0]); k*(k-1)/2*n >= inlineWork {
		t.Fatalf("k=%d n=%d is not below the inline threshold", k, n)
	}
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		if a := testing.AllocsPerRun(20, func() { sinkF = MeanPairwisePearson(series) }); a > 2 {
			t.Errorf("%v allocations per call, want ≤ 2", a)
		}
	})
}

var sinkF float64

// BenchmarkMeanPairwisePearson is the fabric_topo64 shape: 64×63
// connections, 105 correlation bins, on one core and on all of them,
// and on one core with the AVX2 tile off.
func BenchmarkMeanPairwisePearson(b *testing.B) {
	series := pairwiseCase(rand.New(rand.NewSource(42)), 4032, 105)
	for _, c := range []struct {
		name     string
		procs    int
		portable bool
	}{{"procs=1", 1, false}, {"procs=GOMAXPROCS", runtime.GOMAXPROCS(0), false}, {"tile=portable", 1, true}} {
		b.Run(c.name, func(b *testing.B) {
			if c.portable {
				defer func(v bool) { useAVX2 = v }(useAVX2)
				useAVX2 = false
			}
			withProcs(c.procs, func() {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkF = MeanPairwisePearson(series)
				}
			})
		})
	}
}
