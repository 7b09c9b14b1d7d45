// Package dsp implements the signal-processing machinery the paper's
// analysis relies on: a fast Fourier transform (radix-2 with a Bluestein
// fallback for arbitrary lengths), the periodogram power spectrum of the
// binned instantaneous bandwidth, and spectral peak ("spike") extraction
// used to build the analytic traffic models of §7.2.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// twiddles is the one forward twiddle table every radix-2 transform
// reads: exp(−2πi·j/N) for j < N/2, N the largest power of two
// transformed so far. It is immutable once published and replaced only
// by a larger one, so a reader keeps the table it loaded and the farm's
// parallel workers pay the trigonometry once per growth. Size m ≤ N reads
// its factor j at tw[j·(N/m)], bit for bit the value a size-m table would
// hold: fl(−2π)·j·(N/m) and fl(−2π)·j differ by a power of two, which
// scales and divides exactly.
var twiddles atomic.Pointer[[]complex128]

// twiddlesFor returns a table covering size n (a power of two ≥ 2),
// growing the shared one if n is larger than any size seen.
func twiddlesFor(n int) []complex128 {
	if p := twiddles.Load(); p != nil && 2*len(*p) >= n {
		return *p
	}
	tw := make([]complex128, n/2)
	for j := range tw {
		tw[j] = cmplx.Rect(1, -2*math.Pi*float64(j)/float64(n))
	}
	for {
		p := twiddles.Load()
		if p != nil && 2*len(*p) >= n {
			return *p
		}
		if twiddles.CompareAndSwap(p, &tw) {
			return tw
		}
	}
}

// FFT returns the discrete Fourier transform of x:
//
//	X[k] = Σ_n x[n]·exp(−2πi·kn/N)
//
// The input is not modified. Any length is accepted: powers of two use the
// iterative radix-2 algorithm, other lengths use Bluestein's algorithm.
// An empty input returns an empty slice.
func FFT(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	FFTInPlace(out)
	return out
}

// FFTInPlace overwrites x with FFT(x), bit for bit. Power-of-two
// lengths allocate nothing.
func FFTInPlace(x []complex128) { dft(x) }

// dft computes an in-place unnormalized DFT of x: radix-2 for powers of
// two, Bluestein otherwise.
func dft(x []complex128) {
	if len(x)&(len(x)-1) == 0 {
		fftRadix2(x, false)
	} else {
		bluestein(x)
	}
}

// fftRadix2 is dft for a power-of-two length, or its conjugate when
// inverse (Bluestein's convolution runs one of each): the bit-reversal
// permutation, computed as it goes, then one butterfly pass per stage
// reading the shared twiddle table at that stage's stride.
func fftRadix2(a []complex128, inverse bool) {
	n := len(a)
	if n <= 1 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range a {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	tw := twiddlesFor(n)
	for size := 2; size <= n; size <<= 1 {
		half, stride := size>>1, 2*len(tw)/size
		if half < 8 {
			// Short stages run factor by factor down the whole array, so
			// each factor is loaded once and no block is sliced.
			for j := 0; j < half; j++ {
				w := twiddle(tw, j*stride, inverse)
				for s := j; s+half < n; s += size {
					u, v := a[s], a[s+half]*w
					a[s], a[s+half] = u+v, u-v
				}
			}
			continue
		}
		for start := 0; start < n; start += size {
			lo, hi := a[start:start+half], a[start+half:start+size]
			hi = hi[:len(lo)]
			for j := range lo {
				u, v := lo[j], hi[j]*twiddle(tw, j*stride, inverse)
				lo[j], hi[j] = u+v, u-v
			}
		}
	}
}

// twiddle is tw[k], conjugated for the inverse transform.
func twiddle(tw []complex128, k int, inverse bool) complex128 {
	if inverse {
		return complex(real(tw[k]), -imag(tw[k]))
	}
	return tw[k]
}

// bluesteinPlan holds the length-dependent precomputation of the
// chirp-z transform: the chirp sequence and the forward FFT of the
// (fixed) b sequence, for one length.
type bluesteinPlan struct {
	n, m  int
	chirp []complex128
	bHat  []complex128 // FFT of b, computed once
}

// bluesteinLast keeps the last plan built: a run transforms one odd
// length over and over, and an unbounded per-length cache would keep
// every length it ever saw.
var bluesteinLast atomic.Pointer[bluesteinPlan]

func bluesteinPlanFor(n int) *bluesteinPlan {
	if p := bluesteinLast.Load(); p != nil && p.n == n {
		return p
	}
	// chirp[k] = exp(−πi·k²/n); k² mod 2n avoids precision loss.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, -math.Pi*float64(kk)/float64(n))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	fftRadix2(b, false)
	p := &bluesteinPlan{n: n, m: m, chirp: chirp, bHat: b}
	bluesteinLast.Store(p)
	return p
}

// bluestein is dft for any length via the chirp-z transform, using two
// power-of-two FFTs per call (the third, of the fixed b sequence, comes
// from the plan of its length).
func bluestein(x []complex128) {
	n := len(x)
	p := bluesteinPlanFor(n)
	a := make([]complex128, p.m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	fftRadix2(a, false)
	for i := range a {
		a[i] *= p.bHat[i]
	}
	fftRadix2(a, true)
	scale := complex(1/float64(p.m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * p.chirp[k]
	}
}

// fftRealInto writes the full complex spectrum of the real signal x
// into out, which has x's length. Power-of-two lengths use the packed
// algorithm: the N reals are packed into an N/2-point complex signal,
// transformed in out's front half, and unpacked with one twiddle pass —
// half the butterflies of the generic path (see DESIGN.md §8 for the
// derivation).
func fftRealInto(out []complex128, x []float64) {
	n := len(x)
	if n&(n-1) != 0 || n < 4 {
		// Odd or tiny lengths: no packed split; use the generic path.
		for i, v := range x {
			out[i] = complex(v, 0)
		}
		dft(out)
		return
	}
	h := n / 2
	// Pack x into an h-point complex signal z[k] = x[2k] + i·x[2k+1] and
	// transform it once.
	z := out[:h] // reuse the front half of out as the packed scratch
	for k := 0; k < h; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	tw := twiddlesFor(n) // grown to n first, so the h-point pass builds none
	fftRadix2(z, false)
	// Unpack: with E and O the DFTs of the even and odd subsequences,
	//   E[k] = (Z[k] + conj(Z[h−k]))/2
	//   O[k] = −i·(Z[k] − conj(Z[h−k]))/2
	//   X[k] = E[k] + w^k·O[k],  X[k+h] = E[k] − w^k·O[k],  w = e^(−2πi/n)
	// and, by conjugate symmetry, E[h−k] = conj(E[k]), O[h−k] = conj(O[k]).
	// Each {k, h−k} pair is unpacked together so the transform runs in
	// place over out (the pair's reads happen before its writes, and no
	// other pair touches those slots).
	z0 := z[0]
	stride := 2 * len(tw) / n // w^k at tw[k·stride]
	for k := 1; k <= h/2; k++ {
		zk, zc := z[k], cmplx.Conj(z[h-k])
		e := (zk + zc) * 0.5
		o := (zk - zc) * complex(0, -0.5)
		t := tw[k*stride] * o
		out[k] = e + t
		out[k+h] = e - t
		if k < h-k {
			ec, oc := cmplx.Conj(e), cmplx.Conj(o)
			tc := tw[(h-k)*stride] * oc
			out[h-k] = ec + tc
			out[h-k+h] = ec - tc
		}
	}
	re, im := real(z0), imag(z0)
	out[0] = complex(re+im, 0)
	out[h] = complex(re-im, 0)
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
