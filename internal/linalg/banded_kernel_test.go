package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func bitsEqual(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func randVec(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

// TestBandedKernelsMatchLegacy holds the slice-indexed kernels to the
// per-element reference bit for bit: factor data, both flop counts and
// the solution. Zeros planted on the outermost sub-diagonal (which no
// earlier column updates, so the multiplier is exactly zero) exercise the
// factor's data-dependent m == 0 skip.
func TestBandedKernelsMatchLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, band int }{{1, 0}, {2, 1}, {5, 1}, {9, 8}, {20, 3}, {64, 8}, {1024, 8}} {
		a := randBanded(r, tc.n, tc.band)
		planted := 0
		if tc.band > 0 {
			for col := 0; col+tc.band < tc.n; col += 3 {
				a.Set(col+tc.band, col, 0)
				planted++
			}
		}
		want, err := legacyFactorBanded(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FactorBanded(a)
		if err != nil {
			t.Fatal(err)
		}
		if i := bitsEqual(got.lu, want.lu.Data); i >= 0 {
			t.Fatalf("%dx%d: factor data differs at %d: %v vs %v", tc.n, tc.band, i, got.lu[i], want.lu.Data[i])
		}
		if float64(got.FactorFlops) != want.FactorFlops {
			t.Errorf("%dx%d: FactorFlops = %d, legacy %v", tc.n, tc.band, got.FactorFlops, want.FactorFlops)
		}
		if dense, _ := denseFlops(tc.n, tc.band); planted > 0 && got.FactorFlops >= dense {
			t.Errorf("%dx%d: %d planted zeros skipped nothing", tc.n, tc.band, planted)
		}
		rhs := randVec(r, tc.n)
		wantX, wantFlops := want.Solve(rhs)
		gotX, gotFlops := got.Solve(rhs)
		if i := bitsEqual(gotX, wantX); i >= 0 {
			t.Fatalf("%dx%d: solution differs at %d: %v vs %v", tc.n, tc.band, i, gotX[i], wantX[i])
		}
		if gotFlops != wantFlops || float64(got.SolveFlops) != wantFlops {
			t.Errorf("%dx%d: solve flops = %v / %d, legacy %v", tc.n, tc.band, gotFlops, got.SolveFlops, wantFlops)
		}
	}
}

// TestBandedFlopsClosedForm checks the closed forms against the legacy
// loops, which count one operation at a time, over every small shape.
func TestBandedFlopsClosedForm(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for n := 1; n <= 70; n++ {
		for band := 0; band <= min(n-1, 9); band++ {
			a := randBanded(r, n, band)
			want, err := legacyFactorBanded(a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FactorBanded(a)
			if err != nil {
				t.Fatal(err)
			}
			_, wantSolve := want.Solve(make([]float64, n))
			if float64(got.FactorFlops) != want.FactorFlops || float64(got.SolveFlops) != wantSolve {
				t.Fatalf("%dx%d: flops factor %d solve %d, legacy %v %v",
					n, band, got.FactorFlops, got.SolveFlops, want.FactorFlops, wantSolve)
			}
		}
	}
}

// checkBatch solves width right-hand sides in one SolveBatch call and one
// by one, and requires the same bits.
func checkBatch(t *testing.T, seed int64, n, band, width int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	f, err := FactorBanded(randBanded(r, n, band))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float64, width)
	single := make([][]float64, width)
	for k := range batch {
		batch[k] = randVec(r, n)
		single[k] = append([]float64(nil), batch[k]...)
		f.SolveInPlace(single[k])
	}
	f.SolveBatch(batch)
	for k := range batch {
		if i := bitsEqual(batch[k], single[k]); i >= 0 {
			t.Fatalf("seed %d %dx%d width %d: rhs %d differs at %d: %v vs %v",
				seed, n, band, width, k, i, batch[k][i], single[k][i])
		}
	}
}

func FuzzBandedSolveBatch(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(8), uint8(4))
	f.Add(int64(2), uint8(1), uint8(0), uint8(9))
	f.Add(int64(3), uint8(9), uint8(8), uint8(7))
	f.Add(int64(4), uint8(35), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, band, width uint8) {
		nn := 1 + int(n)%96
		checkBatch(t, seed, nn, int(band)%min(nn, 10), 1+int(width)%9)
	})
}

func TestBandedSolveBatchAllWidths(t *testing.T) {
	for width := 1; width <= 9; width++ {
		checkBatch(t, int64(width), 50, 4, width)
	}
}

func TestBandedSolveInPlaceAllocsNothing(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f, err := FactorBanded(randBanded(r, 128, 8))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 7) // one batch of four and a tail of three
	for k := range xs {
		xs[k] = randVec(r, 128)
	}
	if n := testing.AllocsPerRun(20, func() { f.SolveInPlace(xs[0]) }); n != 0 {
		t.Errorf("SolveInPlace allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(20, func() { f.SolveBatch(xs) }); n != 0 {
		t.Errorf("SolveBatch allocates %v per call", n)
	}
}

func TestBandedSolveDimensionMismatchPanics(t *testing.T) {
	f, err := FactorBanded(randBanded(rand.New(rand.NewSource(10)), 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	good := func() []float64 { return make([]float64, 8) }
	for name, call := range map[string]func(){
		"single": func() { f.SolveInPlace(make([]float64, 7)) },
		"batch":  func() { f.SolveBatch([][]float64{good(), good(), make([]float64, 9), good()}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on a wrong-length right-hand side", name)
				}
			}()
			call()
		}()
	}
}
