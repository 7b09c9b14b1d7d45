// Command fxanalyze is the offline analysis tool: it reads a trace
// written by fxrun and computes the paper's characterizations — packet
// statistics, windowed instantaneous bandwidth, power spectra, full
// reports, and per-connection breakdowns.
//
// Every mode but connections is a fold: a binary trace streams through
// the characterizer one decoded record at a time and is never
// materialized, so arbitrarily long captures analyze in O(bandwidth
// windows) memory, and -mode report prints the bytes fxrun -format
// report printed for the run. The same profiling flags as fxrun/fxfarm
// (-cpuprofile, -memprofile, -trace) cover the analysis itself.
//
// Usage:
//
//	fxanalyze -in 2dfft.trace -mode stats
//	fxanalyze -in 2dfft.trace -mode spectrum -peaks 5
//	fxanalyze -in 2dfft.trace -mode bandwidth > series.csv
//	fxanalyze -in 2dfft.trace -mode report > report.json
//	fxanalyze -in 2dfft.trace -mode conn -src 1 -dst 0
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"fxnet/internal/analysis"
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

	var (
		in     = flag.String("in", "", "input trace (required)")
		mode   = flag.String("mode", "stats", "analysis: stats, bandwidth, spectrum, report, connections, conn")
		window = flag.Int("window-ms", 10, "averaging window in ms")
		peaks  = flag.Int("peaks", 5, "number of spectral peaks to report")
		src    = flag.Int("src", -1, "source host for -mode conn")
		dst    = flag.Int("dst", -1, "destination host for -mode conn")
		prof   = profiling.Register(flag.CommandLine)
		ver    = version.Register(flag.CommandLine)
	)
	flag.Parse()
	version.ExitIfRequested(ver)

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *window <= 0 {
		log.Fatalf("-window-ms %d: the averaging window must be positive", *window)
	}
	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	switch *mode {
	case "stats", "report":
		meta, each := packets(f)
		prog := meta["program"]
		sc := analysis.NewStreamCharacterizer(prog, core.RepConn(prog))
		each(sc.Observe)
		if *mode == "report" {
			printReport(sc.Report())
		} else {
			printStats(sc)
		}
	case "conn":
		if *src < 0 || *dst < 0 {
			log.Fatal("-mode conn requires -src and -dst")
		}
		_, each := packets(f)
		sc := analysis.NewStreamCharacterizer("", core.RepConn(""))
		each(func(p trace.Packet) {
			if int(p.Src) == *src && int(p.Dst) == *dst {
				sc.Observe(p)
			}
		})
		printStats(sc)
	case "bandwidth", "spectrum":
		_, each := packets(f)
		acc := analysis.NewAccumulator(sim.Duration(*window) * 1_000_000)
		each(func(p trace.Packet) { acc.Add(p.Time, p.Size) })
		series, dt := acc.Series()
		if *mode == "bandwidth" {
			printSeries(series, dt)
		} else {
			printSpectrum(analysis.SpectrumOfSeries(series, dt), *peaks)
		}
	case "connections":
		// The per-connection table filters the packets themselves, so
		// this one mode materializes the capture.
		tr, err := trace.Read(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %10s %12s\n", "connection", "packets", "KB/s")
		for _, pr := range tr.Pairs() {
			conn := tr.Connection(pr[0], pr[1])
			fmt.Printf("%-20s %10d %12.2f\n",
				fmt.Sprintf("%s > %s", tr.HostName(pr[0]), tr.HostName(pr[1])),
				conn.Len(), analysis.AverageBandwidthKBps(conn))
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// packets returns the capture's metadata and a function that feeds its
// packets, in order, to a fold. A binary trace is decoded one record at
// a time, so the capture is never materialized; a text listing (fxrun
// -format text) has no streaming decoder and is parsed whole.
func packets(f *os.File) (meta map[string]string, each func(observe func(trace.Packet))) {
	if rd, err := trace.NewReader(f); err == nil {
		return rd.Meta(), func(observe func(trace.Packet)) {
			var p trace.Packet
			for {
				if err := rd.Next(&p); err == io.EOF {
					return
				} else if err != nil {
					log.Fatal(err)
				}
				observe(p)
			}
		}
	}
	// Not a readable binary header: trace.Read detects the format again
	// from the start, so a damaged binary trace reports its own error.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Read(f)
	if err != nil {
		log.Fatal(err)
	}
	return tr.Meta, func(observe func(trace.Packet)) {
		for _, p := range tr.Packets {
			observe(p)
		}
	}
}

func printSeries(series []float64, dt float64) {
	fmt.Println("t_sec,kbps")
	for i, v := range series {
		fmt.Printf("%.3f,%.3f\n", float64(i)*dt, v)
	}
}

func printSpectrum(spec *dsp.Spectrum, peaks int) {
	fmt.Printf("# df=%.6f Hz, %d bins\n", spec.DF, len(spec.Power))
	fmt.Printf("# top %d spikes:\n", peaks)
	for _, p := range spec.Peaks(peaks, 2*spec.DF) {
		fmt.Printf("#   %.4f Hz  power %.4g\n", p.Freq, p.Power)
	}
	fmt.Println("freq_hz,power")
	for i := range spec.Freq {
		fmt.Printf("%.6f,%.6g\n", spec.Freq[i], spec.Power[i])
	}
}

func printReport(rep *core.Report) {
	b, err := farm.MarshalReport(rep)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(b)
	fmt.Println()
}

func printStats(sc *analysis.StreamCharacterizer) {
	rep := sc.Report()
	if rep.AggSize.N == 0 {
		fmt.Println("empty trace")
		return
	}
	ss, is := rep.AggSize, rep.AggInterarrival
	fmt.Printf("packets:        %d over %.3f s\n", ss.N, sc.Duration().Seconds())
	fmt.Printf("size (bytes):   min=%.0f max=%.0f avg=%.1f sd=%.1f\n", ss.Min, ss.Max, ss.Mean, ss.SD)
	fmt.Printf("interarrival:   min=%.2f max=%.1f avg=%.2f sd=%.2f ms\n", is.Min, is.Max, is.Mean, is.SD)
	fmt.Printf("avg bandwidth:  %.1f KB/s\n", rep.AggKBps)
}
