package farm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"fxnet/internal/airshed"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/stats"
)

// marshalReportReflect is the reflective encoding MarshalReport must
// reproduce: json.Marshal over the reportJSON mirror, the spectrum
// coefficients copied out into re/im arrays. It is the oracle the
// encoder is held to, byte for byte and error for error.
func marshalReportReflect(rep *core.Report) ([]byte, error) {
	return json.Marshal(reportJSON{
		Program:          rep.Program,
		AggSize:          rep.AggSize,
		ConnSize:         rep.ConnSize,
		AggInterarrival:  rep.AggInterarrival,
		ConnInterarrival: rep.ConnInterarrival,
		AggKBps:          rep.AggKBps,
		ConnKBps:         rep.ConnKBps,
		AggSeries:        rep.AggSeries,
		ConnSeries:       rep.ConnSeries,
		SeriesDT:         rep.SeriesDT,
		AggSpectrum:      spectrumToJSON(rep.AggSpectrum),
		ConnSpectrum:     spectrumToJSON(rep.ConnSpectrum),
		SizeModes:        rep.SizeModes,
		Correlation:      rep.Correlation,
		Coincidence:      rep.Coincidence,
	})
}

func spectrumToJSON(s *dsp.Spectrum) *spectrumJSON {
	if s == nil {
		return nil
	}
	out := &spectrumJSON{Freq: s.Freq, Power: s.Power, DF: s.DF, N: s.N, DT: s.DT}
	out.CoeffRe = make([]float64, len(s.Coeff))
	out.CoeffIm = make([]float64, len(s.Coeff))
	for i, c := range s.Coeff {
		out.CoeffRe[i] = real(c)
		out.CoeffIm[i] = imag(c)
	}
	return out
}

// checkMarshalReport holds MarshalReport to the reflective oracle.
func checkMarshalReport(t testing.TB, name string, rep *core.Report) {
	t.Helper()
	want, wantErr := marshalReportReflect(rep)
	got, gotErr := MarshalReport(rep)
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, the reflective path's %v", name, gotErr, wantErr)
		}
	case !bytes.Equal(got, want):
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: %d bytes, the reflective path's %d; first difference at byte %d: %.40q against %.40q",
			name, len(got), len(want), i, got[i:], want[i:])
	}
}

// bigReport is a synthetic report whose series, frequencies and powers
// span three chunks each.
func bigReport() *core.Report {
	n := 3 * chunkFloats
	ramp := func(scale float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = scale * math.Sin(float64(i)*0.37) * float64(i%7)
		}
		return xs
	}
	spectrum := func() *dsp.Spectrum {
		s := &dsp.Spectrum{Freq: ramp(1e-3), Power: ramp(1e9), Coeff: make([]complex128, n/2), DF: 1e-3, N: n, DT: 0.01}
		for i := range s.Coeff {
			s.Coeff[i] = complex(1e-7*float64(i), -float64(i)/3)
		}
		return s
	}
	return &core.Report{
		Program: "airshed", AggKBps: 12.5, ConnKBps: 1.25, SeriesDT: 0.01,
		AggSeries: ramp(100), ConnSeries: ramp(10),
		AggSpectrum: spectrum(), ConnSpectrum: spectrum(),
		Correlation: 0.5, Coincidence: 0.9,
	}
}

// edgeReports are the reports whose bytes or errors turn on a rule of
// the encoding rather than on the simulator.
func edgeReports() map[string]*core.Report {
	special := []float64{
		math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, 1e-6, math.Nextafter(1e-6, 0),
		1e-7, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 0.1, -123456.789, 1e308,
	}
	reps := map[string]*core.Report{
		"zero":            {},
		"empty series":    {AggSeries: []float64{}, ConnSeries: []float64{}},
		"empty spectrum":  {AggSpectrum: &dsp.Spectrum{}, ConnSpectrum: &dsp.Spectrum{Freq: []float64{}, Coeff: []complex128{}}},
		"html program":    {Program: "<script>a && b</script>  \xff\"\\\n\t\x01"},
		"special values":  {AggSeries: special, AggKBps: -0.0, AggSize: stats.Summary{N: -3, Min: 1e-6, Max: 1e21, Mean: 5e-324, SD: math.Copysign(0, -1)}, AggSpectrum: &dsp.Spectrum{Coeff: []complex128{complex(1e-7, -1e21), complex(math.Copysign(0, -1), 1e-6)}}},
		"NaN scalar":      {AggKBps: math.NaN(), ConnSeries: []float64{math.Inf(1)}},
		"+Inf summary":    {ConnInterarrival: stats.Summary{SD: math.Inf(1)}},
		"-Inf coeff imag": {ConnSpectrum: &dsp.Spectrum{Coeff: []complex128{1, complex(2, math.Inf(-1))}}, Coincidence: math.NaN()},
		"NaN series":      {AggSeries: []float64{1, 2, math.NaN()}, Correlation: math.Inf(1)},
		"big":             bigReport(),
	}
	at := func(name string, edit func(r *core.Report)) {
		r := bigReport()
		edit(r)
		reps[name] = r
	}
	at("big: NaN in a late power chunk, +Inf in the last scalar", func(r *core.Report) {
		r.ConnSpectrum.Power[len(r.ConnSpectrum.Power)-1] = math.NaN()
		r.Coincidence = math.Inf(1)
	})
	at("big: +Inf scalar before a NaN chunk", func(r *core.Report) {
		r.AggKBps = math.Inf(1)
		r.AggSeries[chunkFloats+1] = math.NaN()
	})
	at("big: two chunks of one array", func(r *core.Report) {
		r.ConnSeries[2*chunkFloats+5] = math.Inf(-1)
		r.ConnSeries[chunkFloats] = math.NaN()
	})
	at("big: chunk before scalar", func(r *core.Report) {
		r.ConnSeries[3] = math.Inf(-1)
		r.SeriesDT = math.NaN()
	})
	at("big: imaginary part", func(r *core.Report) {
		r.AggSpectrum.Coeff[len(r.AggSpectrum.Coeff)-1] = complex(1, math.NaN())
		r.AggSpectrum.DF = math.Inf(1)
	})
	at("big: last scalar only", func(r *core.Report) { r.Coincidence = math.Inf(-1) })
	at("big: nil spectrum and nil series", func(r *core.Report) { r.ConnSpectrum, r.AggSeries = nil, nil })
	return reps
}

// TestMarshalReportMatchesReflect: MarshalReport writes the reflective
// path's bytes, and fails with its error, for every program's -quick
// report, a paper-size AIRSHED report long enough for the chunked path,
// and the edge cases, at GOMAXPROCS 1, 2 and 8.
func TestMarshalReportMatchesReflect(t *testing.T) {
	reps := edgeReports()
	for _, name := range core.ProgramNames() {
		_, rep, err := core.RunStream(core.QuickConfig(name, 0, 42))
		if err != nil {
			t.Fatal(err)
		}
		reps["quick "+name] = rep
	}
	ap := airshed.PaperParams()
	ap.Hours = 3
	_, rep, err := core.RunStream(core.RunConfig{Program: core.Airshed, AirshedParams: ap, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.AggSeries); n <= chunkFloats {
		t.Fatalf("the 3-hour AIRSHED series has %d bins, one chunk: the goroutines would never format it", n)
	}
	reps["airshed 3h"] = rep

	if b, err := MarshalReport(nil); b != nil || err != nil {
		t.Fatalf("a nil report: %q, %v; want nil bytes and no error", b, err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for name, rep := range reps {
			checkMarshalReport(t, name, rep)
		}
	}
}

// TestFormatterStopsWithChunksUntaken: after an error the writer stops
// taking chunks. When the goroutines have filled every scratch buffer
// and wait for another, stop still ends them.
func TestFormatterStopsWithChunksUntaken(t *testing.T) {
	f := formatAhead([]floatRun{{xs: make([]float64, 10*chunkFloats)}}, 2)
	full := func() bool {
		for _, d := range f.done[:cap(f.free)] {
			if len(d) == 0 {
				return false
			}
		}
		return true
	}
	for !full() {
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	go func() {
		f.stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stop waits on goroutines that wait for a scratch buffer")
	}
}

// fuzzReport builds a report from raw float64 bits: data's 8-byte words,
// dealt first to the scalars and then in eighths to the six arrays (a
// spectrum's coefficients take two words each). shape&1 replaces the
// aggregate series by the words repeated past two chunks, so the chunks
// are formatted on goroutines when GOMAXPROCS > 1. shape&2 and shape&4
// make the spectra nil; shape&8 makes an empty array nil rather than
// empty.
func fuzzReport(program string, data []byte, shape byte) *core.Report {
	var xs []float64
	for ; len(data) >= 8; data = data[8:] {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	next := 0
	scalar := func() float64 {
		if len(xs) == 0 {
			return 0
		}
		next++
		return xs[(next-1)%len(xs)]
	}
	summary := func() stats.Summary {
		return stats.Summary{N: next - 3, Min: scalar(), Max: scalar(), Mean: scalar(), SD: scalar()}
	}
	eighth := func(i int) []float64 {
		p := xs[i*len(xs)/8 : (i+1)*len(xs)/8]
		switch {
		case len(p) > 0:
			return p
		case shape&8 != 0:
			return nil
		}
		return []float64{}
	}
	spectrum := func(i int) *dsp.Spectrum {
		s := &dsp.Spectrum{Freq: eighth(i), Power: eighth(i + 1), DF: scalar(), N: next, DT: scalar()}
		if p := eighth(i + 2); p != nil {
			s.Coeff = make([]complex128, len(p)/2)
			for k := range s.Coeff {
				s.Coeff[k] = complex(p[2*k], p[2*k+1])
			}
		}
		return s
	}
	rep := &core.Report{
		Program: program, AggSize: summary(), ConnSize: summary(),
		AggInterarrival: summary(), ConnInterarrival: summary(),
		AggKBps: scalar(), ConnKBps: scalar(), SeriesDT: scalar(),
		SizeModes: next, Correlation: scalar(), Coincidence: scalar(),
		AggSeries: eighth(0), ConnSeries: eighth(1),
		AggSpectrum: spectrum(2), ConnSpectrum: spectrum(5),
	}
	if shape&1 != 0 && len(xs) > 0 {
		long := slices.Clone(xs)
		for len(long) <= 2*chunkFloats {
			long = append(long, long...)
		}
		rep.AggSeries = long
	}
	if shape&2 != 0 {
		rep.AggSpectrum = nil
	}
	if shape&4 != 0 {
		rep.ConnSpectrum = nil
	}
	return rep
}

func floatBits(xs ...float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzMarshalReport: for any report — NaN, ±Inf, −0, subnormals and the
// 1e-6 and 1e21 format boundaries among its values, nil or empty arrays,
// nil spectra, any program string — MarshalReport writes the reflective
// path's bytes or fails with its error text.
func FuzzMarshalReport(f *testing.F) {
	finite := []float64{
		1, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-10,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789012345680000, 0.1, -2.5, 1e308, math.MaxFloat64,
	}
	for _, shape := range []byte{0, 1, 6, 8, 9, 15} {
		f.Add("sor", floatBits(finite...), shape)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("2dfft", floatBits(bad), byte(0))
		f.Add("2dfft", floatBits(append(append([]float64{}, finite...), bad)...), byte(0))
		f.Add("2dfft", floatBits(append(append([]float64{}, finite...), bad)...), byte(1))
	}
	f.Add("<script>&</script>", floatBits(0.5), byte(0))
	f.Add("  \xff\x00\"\\", []byte{}, byte(8))
	f.Add("", []byte{}, byte(0))
	f.Fuzz(func(t *testing.T, program string, data []byte, shape byte) {
		checkMarshalReport(t, "fuzz", fuzzReport(program, data, shape))
	})
}

// BenchmarkMarshalReport encodes the 20-hour AIRSHED report (the
// compute_airshed workload's, 1.32 M array elements) by the reflective
// path and by MarshalReport, in one process.
func BenchmarkMarshalReport(b *testing.B) {
	ap := airshed.PaperParams()
	ap.Hours = 20
	_, rep, err := core.RunStream(core.RunConfig{Program: core.Airshed, AirshedParams: ap, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name    string
		marshal func(*core.Report) ([]byte, error)
	}{{"reflect", marshalReportReflect}, {"append", MarshalReport}} {
		b.Run(enc.name, func(b *testing.B) {
			for range b.N {
				out, err := enc.marshal(rep)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(out)))
			}
		})
	}
}
