package core

import (
	"math"
	"reflect"
	"testing"

	"fxnet/internal/dsp"
	"fxnet/internal/stats"
)

// sameBits reports whether two series carry identical float64 bit
// patterns, position by position.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSpectrumBits fails unless two spectra are bit-identical in every
// array and scalar.
func checkSpectrumBits(t *testing.T, what string, got, want *dsp.Spectrum) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil mismatch: got %v want %v", what, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if !sameBits(got.Freq, want.Freq) || !sameBits(got.Power, want.Power) {
		t.Errorf("%s: Freq/Power bits differ", what)
	}
	if math.Float64bits(got.DF) != math.Float64bits(want.DF) ||
		math.Float64bits(got.DT) != math.Float64bits(want.DT) || got.N != want.N {
		t.Errorf("%s: DF/DT/N differ: got (%v,%v,%d) want (%v,%v,%d)",
			what, got.DF, got.DT, got.N, want.DF, want.DT, want.N)
	}
}

// checkSummaryStream fails unless a streaming Summary matches the
// two-pass one exactly in N/Min/Max/Mean and to 1e-9 relative in SD
// (the documented streaming-variance tolerance).
func checkSummaryStream(t *testing.T, what string, got, want stats.Summary) {
	t.Helper()
	if got.N != want.N ||
		math.Float64bits(got.Min) != math.Float64bits(want.Min) ||
		math.Float64bits(got.Max) != math.Float64bits(want.Max) ||
		math.Float64bits(got.Mean) != math.Float64bits(want.Mean) {
		t.Errorf("%s: N/Min/Max/Mean differ: got %+v want %+v", what, got, want)
	}
	tol := 1e-9 * math.Max(1, math.Abs(want.SD))
	if math.Abs(got.SD-want.SD) > tol {
		t.Errorf("%s: SD beyond streaming tolerance: got %v want %v", what, got.SD, want.SD)
	}
}

// TestStreamMatchesTraceCharacterization is the pipeline's exactness
// contract over all six -quick programs: the streaming characterizer's
// bandwidth series, spectra, bandwidth figures, correlation,
// coincidence, and modality must be bit-identical to the trace-derived
// report, and the parallel trace characterization must be byte-identical
// to the serial one at every worker count.
func TestStreamMatchesTraceCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every -quick program twice")
	}
	for _, name := range ProgramNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := QuickConfig(name, 0, 42) // fxrepro -quick, the scale the golden digests pin
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := Characterize(res)

			// Parallel characterization of the same trace: fully
			// identical, SD included (same two-pass functions).
			for _, workers := range []int{2, 4} {
				got := CharacterizePool(res, dsp.NewPool(workers))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("CharacterizePool(%d) differs from serial Characterize", workers)
				}
			}

			sres, got, err := RunStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				t.Fatal("RunStream returned nil report")
			}
			if n := sres.Trace.Len(); n != 0 {
				t.Errorf("stream run retained %d packets", n)
			}
			if sres.Trace.Meta["program"] != name {
				t.Errorf("stream trace metadata missing program (meta=%v)", sres.Trace.Meta)
			}
			if sres.Elapsed != res.Elapsed {
				t.Errorf("stream run elapsed %v, trace run %v", sres.Elapsed, res.Elapsed)
			}

			if !sameBits(got.AggSeries, want.AggSeries) {
				t.Errorf("AggSeries bits differ (len got %d want %d)", len(got.AggSeries), len(want.AggSeries))
			}
			if !sameBits(got.ConnSeries, want.ConnSeries) {
				t.Errorf("ConnSeries bits differ (len got %d want %d)", len(got.ConnSeries), len(want.ConnSeries))
			}
			if math.Float64bits(got.SeriesDT) != math.Float64bits(want.SeriesDT) {
				t.Errorf("SeriesDT differs: got %v want %v", got.SeriesDT, want.SeriesDT)
			}
			checkSpectrumBits(t, "AggSpectrum", got.AggSpectrum, want.AggSpectrum)
			checkSpectrumBits(t, "ConnSpectrum", got.ConnSpectrum, want.ConnSpectrum)
			for _, f := range []struct {
				what      string
				got, want float64
			}{
				{"AggKBps", got.AggKBps, want.AggKBps},
				{"ConnKBps", got.ConnKBps, want.ConnKBps},
				{"Correlation", got.Correlation, want.Correlation},
				{"Coincidence", got.Coincidence, want.Coincidence},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Errorf("%s differs: got %v want %v", f.what, f.got, f.want)
				}
			}
			if got.SizeModes != want.SizeModes {
				t.Errorf("SizeModes differs: got %d want %d", got.SizeModes, want.SizeModes)
			}
			checkSummaryStream(t, "AggSize", got.AggSize, want.AggSize)
			checkSummaryStream(t, "AggInterarrival", got.AggInterarrival, want.AggInterarrival)
			checkSummaryStream(t, "ConnSize", got.ConnSize, want.ConnSize)
			checkSummaryStream(t, "ConnInterarrival", got.ConnInterarrival, want.ConnInterarrival)
		})
	}
}
