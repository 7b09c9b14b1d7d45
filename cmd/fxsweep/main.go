// Command fxsweep runs the network-planning sweeps the paper motivates:
// the same program measured across processor counts, network rates, or
// media, printing how the burst interval, bandwidth, and spectral
// fundamental move. This is the "understanding ... vital for network
// planning" loop made executable.
//
// The sweep's runs are submitted through the experiment farm: -j runs
// them concurrently and -cache reuses previously simulated points.
// Every printed column comes from the Report, so the points are stream
// jobs: each folds its characterization during its simulation, no trace
// is materialized, and cache entries are spectrum-level. -json writes a
// machine-readable record of the sweep alongside the text table (for
// dashboards and BENCH files); "-" selects stdout.
//
// Usage:
//
//	fxsweep -program 2dfft -sweep p -values 2,4,8
//	fxsweep -program 2dfft -sweep bitrate -values 10e6,40e6,100e6
//	fxsweep -program 2dfft -sweep medium -j 2
//	fxsweep -program sor   -sweep loss -values 0,0.01,0.05 -json sweep.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"fxnet"
	"fxnet/internal/version"
)

// jsonFloat marshals NaN and ±Inf as JSON null — a sweep point with no
// spectral peak has an undefined fundamental and an infinite period, and
// encoding/json refuses bare non-finite values. Decoding null restores
// NaN so round-tripped sweeps keep "undefined" distinguishable from 0.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jsonFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// sweepRow is one sweep point, in both the text table and -json output.
type sweepRow struct {
	Sweep         string    `json:"sweep"`
	Label         string    `json:"label"`
	Value         float64   `json:"value"`
	Program       string    `json:"program"`
	Seed          int64     `json:"seed"`
	KBps          jsonFloat `json:"kbps"`
	FundamentalHz jsonFloat `json:"fundamental_hz"`
	PeriodSec     jsonFloat `json:"period_s"`
	Packets       int       `json:"packets"`
	Cached        bool      `json:"cached"`
	Key           string    `json:"key"`
}

// encodeRows renders the -json output.
func encodeRows(rows []sweepRow) ([]byte, error) {
	enc, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxsweep: ")
	var (
		program  = flag.String("program", "2dfft", "program to sweep")
		sweep    = flag.String("sweep", "p", "dimension: p, bitrate, loss, medium")
		values   = flag.String("values", "", "comma-separated sweep values (defaults per dimension)")
		iters    = flag.Int("iters", 20, "outer iterations per run")
		seed     = flag.Int64("seed", 42, "simulation seed")
		faults   = flag.String("faults", "", "fault script applied to every run in the sweep")
		degrade  = flag.Bool("degrade", false, "re-form teams on survivors when a host dies")
		jobs     = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache", "", "content-addressed run-cache directory")
		jsonOut  = flag.String("json", "", "write machine-readable sweep results to this file (\"-\" = stdout)")
		topology = flag.String("topology", "", `multi-segment topology spec or @file applied to every run (empty = single shared segment)`)
		ver      = version.Register()
	)
	flag.Parse()
	version.ExitIfRequested(ver)

	base := fxnet.RunConfig{
		Program: *program, Seed: *seed,
		Params:         fxnet.KernelParams{Iters: *iters},
		DisableDesched: true,
		FaultScript:    *faults,
		Degrade:        *degrade,
	}
	var err error
	if base.Topology, err = fxnet.LoadTopology(*topology); err != nil {
		log.Fatalf("-topology: %v", err)
	}

	type point struct {
		label string
		value float64
		cfg   fxnet.RunConfig
	}
	var points []point
	switch *sweep {
	case "p":
		for _, v := range parseList(*values, "2,4,8") {
			cfg := base
			cfg.P = int(v)
			points = append(points, point{fmt.Sprintf("P=%d", cfg.P), v, cfg})
		}
	case "bitrate":
		for _, v := range parseList(*values, "10e6,40e6,100e6") {
			cfg := base
			cfg.BitRate = v
			points = append(points, point{fmt.Sprintf("%.0f Mb/s", v/1e6), v, cfg})
		}
	case "loss":
		for _, v := range parseList(*values, "0,0.01,0.05") {
			cfg := base
			cfg.FrameLossProb = v
			points = append(points, point{fmt.Sprintf("loss=%.2f", v), v, cfg})
		}
	case "medium":
		points = append(points, point{"shared", 0, base})
		cfg := base
		cfg.Switched = true
		points = append(points, point{"switched", 1, cfg})
	default:
		log.Fatalf("unknown sweep dimension %q", *sweep)
	}

	farm, err := fxnet.NewFarm(fxnet.FarmOptions{
		Workers:  *jobs,
		CacheDir: *cacheDir,
		OnProgress: func(ev fxnet.FarmEvent) {
			how := "ran"
			if ev.Cached {
				how = "cache hit"
			}
			fmt.Fprintf(os.Stderr, "fxsweep: %s %s (%d/%d)\n", how, ev.Label, ev.Done, ev.Total)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	farmJobs := make([]fxnet.FarmJob, len(points))
	for i, pt := range points {
		farmJobs[i] = fxnet.FarmJob{Label: pt.label, Config: pt.cfg, Stream: true}
	}
	results := farm.RunBatch(farmJobs)

	fmt.Printf("%-14s %10s %12s %12s %10s\n", *sweep, "KB/s", "fund (Hz)", "period (s)", "packets")
	rows := make([]sweepRow, 0, len(results))
	for i, jr := range results {
		if jr.Err != nil {
			log.Fatalf("%s: %v", jr.Job.Label, jr.Err)
		}
		// The farm's report already carries the spectrum and bandwidth,
		// folded during the run.
		f := jr.Report.AggSpectrum.DominantFreq()
		kbps := jr.Report.AggKBps
		packets := int(jr.Report.AggSize.N)
		fmt.Printf("%-14s %10.1f %12.3f %12.2f %10d\n",
			jr.Job.Label, kbps, f, 1/f, packets)
		rows = append(rows, sweepRow{
			Sweep: *sweep, Label: jr.Job.Label, Value: points[i].value,
			Program: *program, Seed: *seed,
			KBps: jsonFloat(kbps), FundamentalHz: jsonFloat(f), PeriodSec: jsonFloat(1 / f),
			Packets: packets, Cached: jr.Cached, Key: jr.Key,
		})
	}

	if *jsonOut != "" {
		enc, err := encodeRows(rows)
		if err != nil {
			log.Fatal(err)
		}
		if *jsonOut == "-" {
			os.Stdout.Write(enc)
		} else if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}

func parseList(s, def string) []float64 {
	if s == "" {
		s = def
	}
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			log.Fatalf("bad value %q", tok)
		}
		out = append(out, v)
	}
	return out
}
