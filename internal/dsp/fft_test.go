package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Rect(1, angle)
		}
		out[k] = sum
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func randComplex(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64, 100, 128, 255} {
		x := randComplex(r, n)
		got := FFT(x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if got := FFT(nil); got != nil {
		t.Errorf("FFT(nil) = %v", got)
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	FFT(x)
	for i, v := range []complex128{1, 2, 3, 4} {
		if x[i] != v {
			t.Fatalf("input mutated: %v", x)
		}
	}
}

// ifft is the inverse DFT by the conjugation identity
// IDFT(X) = conj(DFT(conj(X)))/N, so a round trip through it checks FFT
// against itself at every length, radix-2 and Bluestein alike.
func ifft(x []complex128) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = cmplx.Conj(v)
	}
	out := FFT(c)
	for i, v := range out {
		out[i] = cmplx.Conj(v) / complex(float64(len(x)), 0)
	}
	return out
}

func TestIFFTInvertsFFT(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 8, 13, 64, 100, 256} {
		x := randComplex(r, n)
		back := ifft(FFT(x))
		if e := maxErr(x, back); e > 1e-9*float64(n) {
			t.Errorf("n=%d: roundtrip error %g", n, e)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// DFT of a unit impulse is all-ones.
	x := make([]complex128, 16)
	x[0] = 1
	for i, v := range FFT(x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTPureTone(t *testing.T) {
	// A pure complex exponential concentrates in a single bin.
	n, k := 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*float64(k)*float64(i)/float64(n))
	}
	X := FFT(x)
	for i, v := range X {
		want := complex(0, 0)
		if i == k {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", i, v, want)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randComplex(r, 48) // exercises Bluestein
	y := randComplex(r, 48)
	sum := make([]complex128, 48)
	for i := range sum {
		sum[i] = 2*x[i] + 3i*y[i]
	}
	X, Y, S := FFT(x), FFT(y), FFT(sum)
	for i := range S {
		want := 2*X[i] + 3i*Y[i]
		if cmplx.Abs(S[i]-want) > 1e-8 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestParseval(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{32, 50} {
		x := randComplex(r, n)
		X := FFT(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		if math.Abs(et-ef/float64(n)) > 1e-8*et {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, et, ef/float64(n))
		}
	}
}

func TestFFTRealConjugateSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x := make([]float64, 64)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	X := make([]complex128, len(x))
	fftRealInto(X, x)
	for k := 1; k < 32; k++ {
		if cmplx.Abs(X[k]-cmplx.Conj(X[64-k])) > 1e-9 {
			t.Fatalf("conjugate symmetry violated at bin %d", k)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestQuickFFTRoundtrip(t *testing.T) {
	f := func(re, im []float64) bool {
		n := len(re)
		if len(im) < n {
			n = len(im)
		}
		if n == 0 {
			return true
		}
		if n > 512 {
			n = 512
		}
		x := make([]complex128, n)
		for i := 0; i < n; i++ {
			rr, ii := re[i], im[i]
			if math.IsNaN(rr) || math.IsInf(rr, 0) {
				rr = 0
			}
			if math.IsNaN(ii) || math.IsInf(ii, 0) {
				ii = 0
			}
			// clamp to keep absolute tolerance meaningful
			rr = math.Max(-1e6, math.Min(1e6, rr))
			ii = math.Max(-1e6, math.Min(1e6, ii))
			x[i] = complex(rr, ii)
		}
		back := ifft(FFT(x))
		return maxErr(x, back) <= 1e-6*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
