package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// resetFFTState drops the shared twiddle table and the Bluestein plan,
// as in a fresh process.
func resetFFTState() {
	twiddles.Store(nil)
	bluesteinLast.Store(nil)
}

// fftReal is the packed real transform into a fresh slice.
func fftReal(x []float64) []complex128 {
	out := make([]complex128, len(x))
	fftRealInto(out, x)
	return out
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: bin %d = %v, want %v (bits differ)", what, i, got[i], want[i])
		}
	}
}

// Every size m ≤ N reads, at stride N/m, exactly the factor a size-m
// table computes: the strided arguments differ by a power of two only.
func TestTwiddleTableExact(t *testing.T) {
	resetFFTState()
	defer resetFFTState()
	const maxN = 1 << 20
	tw := twiddlesFor(maxN)
	if len(tw) != maxN/2 {
		t.Fatalf("table holds %d factors, want %d", len(tw), maxN/2)
	}
	for m := 2; m <= maxN; m <<= 1 {
		stride := 2 * len(tw) / m
		for j := 0; j < m/2; j++ {
			want := cmplx.Rect(1, -2*math.Pi*float64(j)/float64(m))
			if got := tw[j*stride]; !sameBits(got, want) {
				t.Fatalf("m=%d j=%d: strided factor %v, want %v", m, j, got, want)
			}
		}
	}
}

// A transform gives the same bits whether the table was built for its
// own size or grown by a larger transform first.
func TestFFTIndependentOfTableSize(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x := randComplex(r, 1024)
	xr := realSignal(1024)
	resetFFTState()
	defer resetFFTState()
	fresh, freshReal := FFT(x), fftReal(xr)
	fftReal(make([]float64, 1<<18))
	if got := len(*twiddles.Load()); got != 1<<17 {
		t.Fatalf("table holds %d factors after a 2^18 real FFT, want %d", got, 1<<17)
	}
	requireSameBits(t, "FFT", FFT(x), fresh)
	requireSameBits(t, "fftReal", fftReal(xr), freshReal)
}

// Concurrent transforms of mixed sizes, radix-2 and Bluestein, while the
// table grows under them: run with -race. Every result matches the one
// computed alone.
func TestFFTConcurrentGrowth(t *testing.T) {
	sizes := []int{2, 8, 100, 1024, 1000, 1 << 12, 1 << 14, 1 << 16}
	r := rand.New(rand.NewSource(8))
	in := make([][]complex128, len(sizes))
	want := make([][]complex128, len(sizes))
	resetFFTState()
	defer resetFFTState()
	for i, n := range sizes {
		in[i] = randComplex(r, n)
		want[i] = FFT(in[i])
	}
	resetFFTState()
	const workers = 4
	got := make([][][]complex128, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([][]complex128, len(sizes))
			for k := range sizes {
				i := k
				if w%2 == 1 { // half the workers run largest first
					i = len(sizes) - 1 - k
				}
				got[w][i] = FFT(in[i])
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i := range sizes {
			requireSameBits(t, "concurrent FFT", got[w][i], want[i])
		}
	}
}

// After one 2^18-point real FFT the package holds one table of 2^17
// factors (2 MB) and nothing per size.
func TestFFTRetainedState(t *testing.T) {
	resetFFTState()
	defer resetFFTState()
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	func() {
		x := realSignal(1 << 18)
		fftRealInto(make([]complex128, len(x)), x)
	}()
	retained := heap() - before
	if got := len(*twiddles.Load()); got != 1<<17 {
		t.Errorf("table holds %d factors, want %d", got, 1<<17)
	}
	if bluesteinLast.Load() != nil {
		t.Error("a radix-2 transform built a Bluestein plan")
	}
	if limit := int64(1<<17*16 + 1<<18); retained > limit {
		t.Errorf("retained %d B after the transform, want ≤ %d", retained, limit)
	}
}

// Bluestein keeps one plan: a new length replaces it, and a length
// transformed again after eviction gives the same bits.
func TestBluesteinKeepsOnePlan(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	x := randComplex(r, 100)
	resetFFTState()
	defer resetFFTState()
	first := FFT(x)
	for _, n := range []int{300, 200} {
		FFT(randComplex(r, n))
	}
	if p := bluesteinLast.Load(); p == nil || p.n != 200 {
		t.Errorf("the plan does not hold the last length")
	}
	requireSameBits(t, "FFT after eviction", FFT(x), first)
}
