package dsp

import (
	"math/rand"
	"testing"
)

func benchSignal(n int) []complex128 {
	r := rand.New(rand.NewSource(1))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func BenchmarkFFTRadix2_1024(b *testing.B) {
	x := benchSignal(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTRadix2_16384(b *testing.B) {
	x := benchSignal(16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein_1000(b *testing.B) {
	x := benchSignal(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

// realSignal is n samples of seeded Gaussian noise, a bandwidth-series
// stand-in of the paper's length.
func realSignal(n int) []float64 {
	r := rand.New(rand.NewSource(2))
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func BenchmarkPeriodogram_20000Samples(b *testing.B) {
	x := realSignal(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Periodogram(x, 0.01, PeriodogramOptions{RemoveMean: true, PadPow2: true})
	}
}

// warmPeriodogram returns the scratch-reusing periodogram of a
// 20 000-sample series on a Workspace one spectrum has already warmed.
func warmPeriodogram() func() {
	x := realSignal(20000)
	var ws Workspace
	spectrum := func() { ws.Periodogram(x, 0.01, PeriodogramOptions{RemoveMean: true, PadPow2: true}) }
	spectrum()
	return spectrum
}

// A warmed Workspace allocates nothing per same-size spectrum: the
// padded input, the transform buffer and the output are its scratch.
func TestWorkspacePeriodogramDoesNotAllocate(t *testing.T) {
	if allocs := testing.AllocsPerRun(5, warmPeriodogram()); allocs != 0 {
		t.Errorf("%.1f allocs per warmed-workspace periodogram, want 0", allocs)
	}
}

func BenchmarkPeriodogramWorkspace_20000Samples(b *testing.B) {
	spectrum := warmPeriodogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spectrum()
	}
}
