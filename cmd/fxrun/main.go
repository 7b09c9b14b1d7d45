// Command fxrun executes one compiler-parallelized program on the
// simulated testbed and writes the captured packet trace, playing the
// role of the paper's measurement workstation.
//
// -format selects the product: "bin" (default) and "text" capture and
// write the full packet trace; "report" folds the characterization
// during the simulation — no trace is ever materialized, memory stays
// O(bandwidth windows), and the output is the report JSON, the same
// bytes fxanalyze -mode report prints from the captured trace.
//
// Usage:
//
//	fxrun -program 2dfft -o 2dfft.trace
//	fxrun -program airshed -hours 10 -format text -o airshed.txt
//	fxrun -program 2dfft -format report -o 2dfft.report.json
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"fxnet/internal/airshed"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
	"fxnet/internal/profiling"
	"fxnet/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxrun: ")

	var (
		program  = flag.String("program", "sor", "program to run: sor, 2dfft, t2dfft, seq, hist, airshed")
		p        = flag.Int("p", 0, "processor count (0 = paper default of 4)")
		n        = flag.Int("n", 0, "matrix dimension N (0 = paper default; kernels only)")
		iters    = flag.Int("iters", 0, "outer iterations (0 = paper default; kernels only)")
		hours    = flag.Int("hours", 0, "simulated hours (0 = paper default of 100; airshed only)")
		seed     = flag.Int64("seed", 42, "simulation seed")
		bitrate  = flag.Float64("bitrate", 0, "segment bit rate in b/s (0 = 10 Mb/s)")
		out      = flag.String("o", "", "output file (default stdout)")
		format   = flag.String("format", "bin", "output: bin or text (packet trace), report (characterization JSON, no trace kept)")
		faults   = flag.String("faults", "", `fault script, e.g. "5s:linkdown host2,7s:linkup host2"`)
		degrade  = flag.Bool("degrade", false, "re-form the team on survivors when a host dies (renegotiates P via QoS)")
		topology = flag.String("topology", "", `multi-segment topology spec like "lan0:0-1,lan1:2-3" or @file (empty = single shared segment)`)
		pdes     = flag.String("pdes", "auto", "partitioned-engine execution: auto, serial, or parallel (multi-segment runs only)")
		prof     = profiling.Register(flag.CommandLine)
		ver      = version.Register(flag.CommandLine)
	)
	flag.Parse()
	version.ExitIfRequested(ver)

	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	cfg := core.RunConfig{
		Program:     *program,
		P:           *p,
		Seed:        *seed,
		BitRate:     *bitrate,
		Params:      kernels.Params{N: *n, Iters: *iters},
		FaultScript: *faults,
		Degrade:     *degrade,
	}
	if *hours > 0 {
		ap := airshed.PaperParams()
		ap.Hours = *hours
		cfg.AirshedParams = ap
	}
	if cfg.Topology, err = core.LoadTopology(*topology); err != nil {
		log.Fatalf("-topology: %v", err)
	}
	var opts core.RunOpts
	switch *pdes {
	case "auto":
		opts.PDES = core.PDESAuto
	case "serial":
		opts.PDES = core.PDESSerial
	case "parallel":
		opts.PDES = core.PDESParallel
	default:
		log.Fatalf("unknown -pdes %q (want auto, serial, or parallel)", *pdes)
	}
	switch *format {
	case "bin", "text", "report":
	default:
		log.Fatalf("unknown -format %q (want bin, text, or report)", *format)
	}

	var res *core.Result
	var rep *core.Report
	if *format == "report" {
		res, rep, err = core.RunStreamWithOpts(cfg, opts)
	} else {
		res, err = core.RunWithOpts(cfg, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	if rep != nil {
		fmt.Fprintf(os.Stderr, "fxrun: %s finished at t=%s, %d packets analyzed in-flight\n",
			*program, res.Elapsed, rep.AggSize.N)
	} else {
		fmt.Fprintf(os.Stderr, "fxrun: %s finished at t=%s, %d packets captured\n",
			*program, res.Elapsed, res.Trace.Len())
	}
	if res.Engine.Windows > 0 {
		fmt.Fprintf(os.Stderr, "fxrun: pdes windows=%d active_mean=%.2f nulls=%d cross_msgs=%d\n",
			res.Engine.Windows, res.Engine.MeanActive(),
			res.Engine.NullPublishes, res.Engine.CrossMessages)
	}
	if res.RunErr != nil {
		fmt.Fprintf(os.Stderr, "fxrun: program aborted under faults: %v\n", res.RunErr)
	} else if *faults != "" && res.Team != nil {
		fmt.Fprintf(os.Stderr, "fxrun: final team generation %d with P=%d\n",
			res.Team.Generation(), len(res.Workers))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	switch *format {
	case "bin":
		err = res.Trace.WriteBinary(w)
	case "text":
		err = res.Trace.WriteText(w)
	case "report":
		writeReport(w, rep)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// writeReport renders a characterization as JSON.
func writeReport(w io.Writer, rep *core.Report) {
	b, err := farm.MarshalReport(rep)
	if err != nil {
		log.Fatal(err)
	}
	// The newline is its own write: appending it to an exactly sized
	// report would copy the whole report.
	if _, err = w.Write(b); err == nil {
		_, err = w.Write([]byte{'\n'})
	}
	if err != nil {
		log.Fatal(err)
	}
}
