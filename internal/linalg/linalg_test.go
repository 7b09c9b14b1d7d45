package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Errorf("matrix = %+v", m)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases original")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("y = %v", y)
	}
}

func randDominant(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i != j {
				v := r.NormFloat64()
				m.Set(i, j, v)
				sum += math.Abs(v)
			}
		}
		m.Set(i, i, sum+1+r.Float64())
	}
	return m
}

func TestLUSolve(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 10, 40} {
		a := randDominant(r, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := a.MulVec(want)
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := f.Solve(b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal requires a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{3, 7})
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
	if math.Abs(f.Det()-(-1)) > 1e-12 {
		t.Errorf("det = %v, want -1", f.Det())
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factor(a); err == nil {
		t.Error("no error for singular matrix")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); err == nil {
		t.Error("no error for non-square matrix")
	}
}

func TestFactorLeavesInputUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randDominant(r, 4)
	before := append([]float64(nil), a.Data...)
	if _, err := Factor(a); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if a.Data[i] != before[i] {
			t.Fatal("Factor mutated its input")
		}
	}
}

func TestDet(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	f, _ := Factor(a)
	if math.Abs(f.Det()-5) > 1e-12 {
		t.Errorf("det = %v, want 5", f.Det())
	}
}

func randBanded(r *rand.Rand, n, band int) *Banded {
	b := NewBanded(n, band)
	for i := 0; i < n; i++ {
		var sum float64
		for j := max(0, i-band); j <= min(n-1, i+band); j++ {
			if i == j {
				continue
			}
			v := r.NormFloat64()
			b.Set(i, j, v)
			sum += math.Abs(v)
		}
		b.Set(i, i, sum+1+r.Float64())
	}
	return b
}

func TestBandedAccessors(t *testing.T) {
	b := NewBanded(5, 1)
	b.Set(2, 3, 7)
	b.Add(2, 3, 1)
	if b.At(2, 3) != 8 {
		t.Errorf("At = %v", b.At(2, 3))
	}
	if b.At(0, 4) != 0 {
		t.Error("out-of-band At != 0")
	}
	if row := b.Row(2); len(row) != 3 || row[b.Band+1] != 8 {
		t.Errorf("Row(2) = %v, want element (2,3) = 8 at offset Band+1", row)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic setting out-of-band element")
			}
		}()
		b.Set(0, 4, 1)
	}()
}

func TestBandedMulVecMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := randBanded(r, 12, 3)
	x := make([]float64, 12)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	got := b.MulVec(x)
	want := b.Dense().MulVec(x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestBandedLUSolveMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ n, band int }{{1, 0}, {5, 1}, {20, 3}, {64, 8}} {
		b := randBanded(r, tc.n, tc.band)
		rhs := make([]float64, tc.n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		f, err := FactorBanded(b)
		if err != nil {
			t.Fatal(err)
		}
		got, flops := f.Solve(rhs)
		if tc.n > 1 && flops <= 0 {
			t.Error("no flops reported")
		}
		df, err := Factor(b.Dense())
		if err != nil {
			t.Fatal(err)
		}
		want := df.Solve(rhs)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("n=%d band=%d: x[%d]=%v want %v", tc.n, tc.band, i, got[i], want[i])
			}
		}
	}
}

func TestBandedFlopCounts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := randBanded(r, 100, 4)
	f, err := FactorBanded(b)
	if err != nil {
		t.Fatal(err)
	}
	// Factorization is O(n·band²): must be far below dense O(n³)/3.
	if f.FactorFlops <= 0 || f.FactorFlops > 100*9*9*3 {
		t.Errorf("FactorFlops = %v", f.FactorFlops)
	}
	_, sf := f.Solve(make([]float64, 100))
	if sf <= 0 || sf > 100*(4*4+4+2)*2 {
		t.Errorf("solve flops = %v", sf)
	}
}

func TestQuickLUResidual(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(20)
		a := randDominant(rr, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rr.NormFloat64()
		}
		lu, err := Factor(a)
		if err != nil {
			return false
		}
		x := lu.Solve(b)
		res := a.MulVec(x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
