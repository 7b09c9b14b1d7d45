package farm

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/stats"
)

// reportJSON is the JSON shape of a core.Report, field for field, with
// complex128 spectrum coefficients split into re/im arrays. Go's JSON
// float encoding is shortest-round-trip, so numbers printed from a
// revived report are byte-identical to the originals. MarshalReport
// writes this shape without reflection; decoding reads it through here.
type reportJSON struct {
	Program          string        `json:"program"`
	AggSize          stats.Summary `json:"agg_size"`
	ConnSize         stats.Summary `json:"conn_size"`
	AggInterarrival  stats.Summary `json:"agg_interarrival"`
	ConnInterarrival stats.Summary `json:"conn_interarrival"`
	AggKBps          float64       `json:"agg_kbps"`
	ConnKBps         float64       `json:"conn_kbps"`
	AggSeries        []float64     `json:"agg_series"`
	ConnSeries       []float64     `json:"conn_series"`
	SeriesDT         float64       `json:"series_dt"`
	AggSpectrum      *spectrumJSON `json:"agg_spectrum"`
	ConnSpectrum     *spectrumJSON `json:"conn_spectrum"`
	SizeModes        int           `json:"size_modes"`
	Correlation      float64       `json:"correlation"`
	Coincidence      float64       `json:"coincidence"`
}

type spectrumJSON struct {
	Freq    []float64 `json:"freq"`
	Power   []float64 `json:"power"`
	CoeffRe []float64 `json:"coeff_re"`
	CoeffIm []float64 `json:"coeff_im"`
	DF      float64   `json:"df"`
	N       int       `json:"n"`
	DT      float64   `json:"dt"`
}

func spectrumFromJSON(s *spectrumJSON) (*dsp.Spectrum, error) {
	if s == nil {
		return nil, nil
	}
	if len(s.CoeffRe) != len(s.CoeffIm) {
		return nil, errors.New("farm: spectrum coefficient arrays disagree")
	}
	out := &dsp.Spectrum{Freq: s.Freq, Power: s.Power, DF: s.DF, N: s.N, DT: s.DT}
	out.Coeff = make([]complex128, len(s.CoeffRe))
	for i := range s.CoeffRe {
		out.Coeff[i] = complex(s.CoeffRe[i], s.CoeffIm[i])
	}
	return out, nil
}

// chunkFloats is the number of array elements a formatting goroutine
// writes at a time. MarshalReport formats on several goroutines when
// some array of the report spans more than one chunk and GOMAXPROCS > 1.
const chunkFloats = 1 << 14

// floatBytes is the longest array element MarshalReport writes, comma
// included: "-0.0000012345678901234567" is 25 bytes.
const floatBytes = 26

// MarshalReport renders a characterization as JSON — the cache's report
// section, the bench digest, and the output of fxrun, fxanalyze and
// fxfarm -out. It writes exactly the bytes json.Marshal writes for the
// reportJSON of rep: the same field order, null for a nil series or
// spectrum, encoding/json's float and HTML-escaping rules, and the same
// error for a NaN or infinite value. Everything is appended to one
// buffer sized for the longest elements. When an array spans more than
// one chunk and GOMAXPROCS > 1, every array's chunks are formatted ahead
// on min(GOMAXPROCS, chunks) goroutines and copied into that buffer in
// order; otherwise the calling goroutine formats them itself. A nil
// report is nil bytes.
func MarshalReport(rep *core.Report) ([]byte, error) {
	var w reportWriter
	if rep != nil {
		w.report(rep)
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// reportArrays lists the arrays of rep in the order reportWriter.report
// writes them, nil ones included (they have no elements).
func reportArrays(rep *core.Report) []floatRun {
	arrays := []floatRun{{xs: rep.AggSeries}, {xs: rep.ConnSeries}}
	for _, s := range []*dsp.Spectrum{rep.AggSpectrum, rep.ConnSpectrum} {
		if s != nil {
			arrays = append(arrays, floatRun{xs: s.Freq}, floatRun{xs: s.Power},
				floatRun{cs: s.Coeff}, floatRun{cs: s.Coeff, im: true})
		}
	}
	return arrays
}

// A floatRun is one JSON array of a report: xs, or the real or (im)
// imaginary parts of cs.
type floatRun struct {
	xs []float64
	cs []complex128
	im bool
}

func (r floatRun) len() int { return len(r.xs) + len(r.cs) }

func (r floatRun) at(i int) float64 {
	switch {
	case r.cs == nil:
		return r.xs[i]
	case r.im:
		return imag(r.cs[i])
	default:
		return real(r.cs[i])
	}
}

func (r floatRun) slice(i, j int) floatRun {
	if r.cs == nil {
		return floatRun{xs: r.xs[i:j]}
	}
	return floatRun{cs: r.cs[i:j], im: r.im}
}

// appendTo appends r's elements comma-separated (with a leading comma
// when lead), stopping at the first value JSON cannot hold.
func (r floatRun) appendTo(b []byte, lead bool) ([]byte, error) {
	var err error
	for i, n := 0, r.len(); i < n && err == nil; i++ {
		if lead || i > 0 {
			b = append(b, ',')
		}
		b, err = appendFloat(b, r.at(i))
	}
	return b, err
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or 'e' below 1e-6 and from 1e21 in magnitude with the
// exponent's leading zero dropped (1e-7, not 1e-07). NaN and ±Inf fail
// with json.Marshal's error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	switch {
	case f == 0 && !math.Signbit(f): // most bins of a long series
		return append(b, '0'), nil
	case math.IsNaN(f) || math.IsInf(f, 0):
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// reportWriter appends a report's JSON to buf. With ahead set, each
// array's chunks come formatted from the goroutines of ahead.
type reportWriter struct {
	buf   []byte
	err   error // the first value buf could not hold; later writes are dropped
	ahead *formatter
}

func (w *reportWriter) raw(s string) {
	if w.err == nil {
		w.buf = append(w.buf, s...)
	}
}

// key writes the separator and name of an object's next field.
func (w *reportWriter) key(name string) *reportWriter {
	w.raw(`,"`)
	w.raw(name)
	w.raw(`":`)
	return w
}

func (w *reportWriter) int(n int) {
	if w.err == nil {
		w.buf = strconv.AppendInt(w.buf, int64(n), 10)
	}
}

func (w *reportWriter) float(f float64) {
	if w.err == nil {
		w.buf, w.err = appendFloat(w.buf, f)
	}
}

// floats writes xs as an array, or null when it is nil.
func (w *reportWriter) floats(xs []float64) {
	if xs == nil {
		w.raw("null")
		return
	}
	w.array(floatRun{xs: xs})
}

func (w *reportWriter) array(r floatRun) {
	w.raw("[")
	switch {
	case w.err != nil:
	case w.ahead == nil:
		w.buf, w.err = r.appendTo(w.buf, false)
	default:
		for i := 0; i < r.len() && w.err == nil; i += chunkFloats {
			w.buf, w.err = w.ahead.take(w.buf)
		}
	}
	w.raw("]")
}

func (w *reportWriter) summary(s stats.Summary) {
	w.raw(`{"N":`)
	w.int(s.N)
	w.key("Min").float(s.Min)
	w.key("Max").float(s.Max)
	w.key("Mean").float(s.Mean)
	w.key("SD").float(s.SD)
	w.raw(`}`)
}

// spectrum writes s as spectrumJSON, coefficients straight from
// s.Coeff; they are never null, as the re/im copies were never nil.
func (w *reportWriter) spectrum(s *dsp.Spectrum) {
	if s == nil {
		w.raw("null")
		return
	}
	w.raw(`{"freq":`)
	w.floats(s.Freq)
	w.key("power").floats(s.Power)
	w.key("coeff_re").array(floatRun{cs: s.Coeff})
	w.key("coeff_im").array(floatRun{cs: s.Coeff, im: true})
	w.key("df").float(s.DF)
	w.key("n").int(s.N)
	w.key("dt").float(s.DT)
	w.raw(`}`)
}

// report sizes buf, starts the formatter when an array spans more than
// one chunk and there is a second P, and writes rep.
func (w *reportWriter) report(rep *core.Report) {
	arrays := reportArrays(rep)
	n, longest := 0, 0
	for _, a := range arrays {
		n += a.len()
		longest = max(longest, a.len())
	}
	w.buf = make([]byte, 0, 1024+floatBytes*n)
	if procs := runtime.GOMAXPROCS(0); procs > 1 && longest > chunkFloats {
		w.ahead = formatAhead(arrays, procs)
		defer w.ahead.stop()
	}
	program, _ := json.Marshal(rep.Program) // a string always marshals
	w.raw(`{"program":`)
	w.buf = append(w.buf, program...)
	w.key("agg_size").summary(rep.AggSize)
	w.key("conn_size").summary(rep.ConnSize)
	w.key("agg_interarrival").summary(rep.AggInterarrival)
	w.key("conn_interarrival").summary(rep.ConnInterarrival)
	w.key("agg_kbps").float(rep.AggKBps)
	w.key("conn_kbps").float(rep.ConnKBps)
	w.key("agg_series").floats(rep.AggSeries)
	w.key("conn_series").floats(rep.ConnSeries)
	w.key("series_dt").float(rep.SeriesDT)
	w.key("agg_spectrum").spectrum(rep.AggSpectrum)
	w.key("conn_spectrum").spectrum(rep.ConnSpectrum)
	w.key("size_modes").int(rep.SizeModes)
	w.key("correlation").float(rep.Correlation)
	w.key("coincidence").float(rep.Coincidence)
	w.raw(`}`)
}

// A chunk is up to chunkFloats elements of one array; lead marks every
// chunk but an array's first, which is written after a comma.
type chunk struct {
	run  floatRun
	lead bool
}

// A formatted chunk is its text, in a scratch buffer of the formatter,
// or the error of its first value JSON cannot hold.
type formatted struct {
	text []byte
	err  error
}

// A formatter formats a report's chunks, in document order, on its own
// goroutines, ahead of the writer that copies them out with take. Each
// goroutine takes a free scratch buffer before it claims the next
// chunk, so the chunks that hold buffers are always the ones the writer
// takes next, and the pipeline cannot deadlock.
type formatter struct {
	chunks []chunk
	done   []chan formatted // one per chunk, buffered: a send never waits
	free   chan []byte      // scratch buffers not holding a chunk
	next   atomic.Int64     // the next chunk to claim
	taken  int              // the chunks take has copied out
	wg     sync.WaitGroup
}

// formatAhead starts min(procs, chunks) goroutines formatting the chunks
// of arrays, with two scratch buffers for each.
func formatAhead(arrays []floatRun, procs int) *formatter {
	f := &formatter{}
	for _, a := range arrays {
		for i, n := 0, a.len(); i < n; i += chunkFloats {
			f.chunks = append(f.chunks, chunk{run: a.slice(i, min(i+chunkFloats, n)), lead: i > 0})
		}
	}
	f.done = make([]chan formatted, len(f.chunks))
	for i := range f.done {
		f.done[i] = make(chan formatted, 1)
	}
	workers := min(procs, len(f.chunks))
	f.free = make(chan []byte, 2*workers)
	for range 2 * workers {
		f.free <- make([]byte, 0, floatBytes*chunkFloats)
	}
	f.wg.Add(workers)
	for range workers {
		go f.work()
	}
	return f
}

func (f *formatter) work() {
	defer f.wg.Done()
	for {
		scratch := <-f.free
		i := int(f.next.Add(1) - 1)
		if i >= len(f.chunks) {
			return
		}
		c := f.chunks[i]
		text, err := c.run.appendTo(scratch[:0], c.lead)
		f.done[i] <- formatted{text, err}
	}
}

// take appends the next chunk's text to b and hands its scratch buffer
// back to the goroutines.
func (f *formatter) take(b []byte) ([]byte, error) {
	c := <-f.done[f.taken]
	f.taken++
	b = append(b, c.text...)
	f.free <- c.text
	return b, c.err
}

// stop ends the goroutines and waits for them. It claims every chunk
// not yet claimed, so a goroutine's next claim ends it. After an error,
// chunks may be claimed but never taken, holding every scratch buffer
// while the goroutines wait for one: stop takes them and frees their
// buffers. There are two buffers for each goroutine, so one that keeps
// its last buffer as it ends never starves another.
func (f *formatter) stop() {
	claimed := min(int(f.next.Swap(int64(len(f.chunks)))), len(f.chunks))
	for ; f.taken < claimed; f.taken++ {
		f.free <- (<-f.done[f.taken]).text
	}
	f.wg.Wait()
}

func unmarshalReport(b []byte) (*core.Report, error) {
	var rj reportJSON
	if err := json.Unmarshal(b, &rj); err != nil {
		return nil, err
	}
	agg, err := spectrumFromJSON(rj.AggSpectrum)
	if err != nil {
		return nil, err
	}
	conn, err := spectrumFromJSON(rj.ConnSpectrum)
	if err != nil {
		return nil, err
	}
	return &core.Report{
		Program:          rj.Program,
		AggSize:          rj.AggSize,
		ConnSize:         rj.ConnSize,
		AggInterarrival:  rj.AggInterarrival,
		ConnInterarrival: rj.ConnInterarrival,
		AggKBps:          rj.AggKBps,
		ConnKBps:         rj.ConnKBps,
		AggSeries:        rj.AggSeries,
		ConnSeries:       rj.ConnSeries,
		SeriesDT:         rj.SeriesDT,
		AggSpectrum:      agg,
		ConnSpectrum:     conn,
		SizeModes:        rj.SizeModes,
		Correlation:      rj.Correlation,
		Coincidence:      rj.Coincidence,
	}, nil
}
