// Command fxanalyze is the offline analysis tool and the one reader of
// trace files: it reads a trace written by fxrun and computes the
// paper's characterizations — packet statistics, the instantaneous
// bandwidth series, its power spectrum, the full report, the §7.2
// Fourier model, and per-connection breakdowns.
//
// Every mode but connections is one fold: a binary trace streams through
// the characterizer one decoded record at a time and is never
// materialized, so arbitrarily long captures analyze in O(bandwidth
// windows) memory, and -mode report prints the bytes fxrun -format
// report printed for the run. -mode model fits the report with the
// catalog's fit, -peaks spikes strong, and prints the entry in the form
// `fxmodel ls -json` and /v1/models use. The same profiling flags as
// fxrun/fxfarm (-cpuprofile, -memprofile, -trace) cover the analysis
// itself.
//
// Usage:
//
//	fxanalyze -in 2dfft.trace -mode stats
//	fxanalyze -in 2dfft.trace -mode spectrum -peaks 5
//	fxanalyze -in 2dfft.trace -mode bandwidth > series.csv
//	fxanalyze -in 2dfft.trace -mode report > report.json
//	fxanalyze -in 2dfft.trace -mode model -peaks 16
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"fxnet/internal/analysis"
	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/farm"
	"fxnet/internal/profiling"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
	"fxnet/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxanalyze: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("fxanalyze", flag.ExitOnError)
	var (
		in    = fs.String("in", "", "input trace (required)")
		mode  = fs.String("mode", "stats", "analysis: stats, bandwidth, spectrum, report, model, connections")
		peaks = fs.Int("peaks", 5, "spectral peaks to report; the spike budget of -mode model")
		prof  = profiling.Register(fs)
		ver   = version.Register(fs)
	)
	fs.Parse(args)
	version.ExitIfRequested(ver)
	if *in == "" {
		return errors.New("-in: a trace file is required")
	}

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()

	switch *mode {
	case "connections":
		return printConnections(stdout, f)
	case "stats", "bandwidth", "spectrum", "report", "model":
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	meta, sc, err := characterize(f)
	if err != nil {
		return err
	}
	rep := sc.Report()
	switch *mode {
	case "stats":
		printStats(stdout, sc.Duration(), rep)
	case "bandwidth":
		printSeries(stdout, rep.AggSeries, rep.SeriesDT)
	case "spectrum":
		printSpectrum(stdout, rep.AggSpectrum, *peaks)
	case "report":
		return printReport(stdout, rep)
	case "model":
		return printModel(stdout, meta, rep, *peaks)
	}
	return nil
}

// characterize folds the capture through the stream characterizer of
// the program its metadata names. A binary trace is decoded one record
// at a time, so the capture is never materialized; a text listing (fxrun
// -format text) has no streaming decoder and is parsed whole.
func characterize(f *os.File) (map[string]string, *analysis.StreamCharacterizer, error) {
	if rd, err := trace.NewReader(f); err == nil {
		sc := newCharacterizer(rd.Meta())
		var p trace.Packet
		for {
			if err := rd.Next(&p); err == io.EOF {
				return rd.Meta(), sc, nil
			} else if err != nil {
				return nil, nil, err
			}
			sc.Observe(p)
		}
	}
	// Not a readable binary header: trace.Read detects the format again
	// from the start, so a damaged binary trace reports its own error.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	tr, err := trace.Read(f)
	if err != nil {
		return nil, nil, err
	}
	sc := newCharacterizer(tr.Meta)
	for _, p := range tr.Packets {
		sc.Observe(p)
	}
	return tr.Meta, sc, nil
}

func newCharacterizer(meta map[string]string) *analysis.StreamCharacterizer {
	prog := meta["program"]
	return analysis.NewStreamCharacterizer(prog, core.RepConn(prog))
}

// printConnections prints the per-connection table. It filters the
// packets themselves, so this one mode materializes the capture.
func printConnections(w io.Writer, f *os.File) error {
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %10s %12s\n", "connection", "packets", "KB/s")
	for _, pr := range tr.Pairs() {
		conn := tr.Connection(pr[0], pr[1])
		fmt.Fprintf(w, "%-20s %10d %12.2f\n",
			fmt.Sprintf("%s > %s", tr.HostName(pr[0]), tr.HostName(pr[1])),
			conn.Len(), analysis.AverageBandwidthKBps(conn))
	}
	return nil
}

func printSeries(w io.Writer, series []float64, dt float64) {
	fmt.Fprintln(w, "t_sec,kbps")
	for i, v := range series {
		fmt.Fprintf(w, "%.3f,%.3f\n", float64(i)*dt, v)
	}
}

func printSpectrum(w io.Writer, spec *dsp.Spectrum, peaks int) {
	fmt.Fprintf(w, "# df=%.6f Hz, %d bins\n", spec.DF, len(spec.Power))
	fmt.Fprintf(w, "# top %d spikes:\n", peaks)
	for _, p := range spec.Peaks(peaks, 2*spec.DF) {
		fmt.Fprintf(w, "#   %.4f Hz  power %.4g\n", p.Freq, p.Power)
	}
	fmt.Fprintln(w, "freq_hz,power")
	for i := range spec.Freq {
		fmt.Fprintf(w, "%.6f,%.6g\n", spec.Freq[i], spec.Power[i])
	}
}

func printReport(w io.Writer, rep *core.Report) error {
	b, err := farm.MarshalReport(rep)
	if err != nil {
		return err
	}
	if _, err = w.Write(b); err == nil {
		_, err = w.Write([]byte{'\n'}) // not appended: that would copy the report
	}
	return err
}

// printModel fits the report as the catalog does — the same spikes
// -mode spectrum lists, the DC term re-centred on the measured window —
// and prints the entry, identified by the trace's program, P and seed.
func printModel(w io.Writer, meta map[string]string, rep *core.Report, spikes int) error {
	e, err := catalog.FitReport(rep, spikes)
	if err != nil {
		return err
	}
	// fxrun writes all three; a trace without them leaves them zero.
	e.Program = meta["program"]
	e.P, _ = strconv.Atoi(meta["P"])
	e.Seed, _ = strconv.ParseInt(meta["seed"], 10, 64)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(catalog.ToJSON(e))
}

func printStats(w io.Writer, d sim.Duration, rep *core.Report) {
	if rep.AggSize.N == 0 {
		fmt.Fprintln(w, "empty trace")
		return
	}
	ss, is := rep.AggSize, rep.AggInterarrival
	fmt.Fprintf(w, "packets:        %d over %.3f s\n", ss.N, d.Seconds())
	fmt.Fprintf(w, "size (bytes):   min=%.0f max=%.0f avg=%.1f sd=%.1f\n", ss.Min, ss.Max, ss.Mean, ss.SD)
	fmt.Fprintf(w, "interarrival:   min=%.2f max=%.1f avg=%.2f sd=%.2f ms\n", is.Min, is.Max, is.Mean, is.SD)
	fmt.Fprintf(w, "avg bandwidth:  %.1f KB/s\n", rep.AggKBps)
}
