// Command fxfarm is the batch runner: the cross product of programs ×
// processor counts × seeds × bit rates × frame-loss rates × media,
// executed on a bounded worker pool with content-addressed caching —
// from a one-dimension planning sweep (how do bandwidth and the spectral
// fundamental move with the bit rate?) to hundreds of deterministic runs
// in one invocation. Every run is the measured configuration fxrun and
// fxrepro use: descheduling on, the paper's iteration counts unless
// -iters says otherwise.
//
// Usage:
//
//	fxfarm -programs 2dfft -bitrates 10e6,40e6,100e6 -json sweep.json
//	fxfarm -programs sor -loss 0,0.01,0.05 -media shared,switched
//	fxfarm -programs sor,2dfft -p 2,4,8 -seeds 1-10 -j 8 -cache .fxcache
//	fxfarm -programs all -seeds 1-3 -out runs/
//
// Each table row is one run: its label, average bandwidth, spectral
// fundamental and the period it implies, packet count, virtual elapsed
// time, wall time, and cache provenance. Every column comes from the
// run's Report, so the runs are stream jobs — the characterization folds
// during the simulation, no trace is kept, cache entries are
// spectrum-level — unless -out asks for the traces, which it writes
// beside each run's characterization JSON. A configuration the run path
// refuses is reported on its row and the rest of the batch still runs.
// -json writes the batch summary for dashboards; "-json -" puts it alone
// on stdout and moves the table to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fxnet/internal/catalog"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
	"fxnet/internal/profiling"
	"fxnet/internal/sim"
	"fxnet/internal/version"
)

// batchRow is one run, in both the text table and the -json output. The
// floats a degenerate run leaves undefined (no spectral peak: fundamental
// 0, period +Inf) marshal as null.
type batchRow struct {
	Label         string            `json:"label"`
	Program       string            `json:"program"`
	P             int               `json:"p"`
	Seed          int64             `json:"seed"`
	BitRate       float64           `json:"bitrate,omitempty"`
	Loss          float64           `json:"loss,omitempty"`
	Switched      bool              `json:"switched,omitempty"`
	KBps          catalog.JSONFloat `json:"kbps"`
	FundamentalHz catalog.JSONFloat `json:"fundamental_hz"`
	PeriodSec     catalog.JSONFloat `json:"period_s"`
	Packets       int               `json:"packets"`
	ElapsedS      float64           `json:"elapsed_s"`
	WallS         float64           `json:"wall_s"`
	Cached        bool              `json:"cached"`
	Deduped       bool              `json:"deduped"`
	Key           string            `json:"key"`
	RunFailed     string            `json:"run_failed,omitempty"`
	Error         string            `json:"error,omitempty"`
}

// encodeRows renders the -json output.
func encodeRows(rows []batchRow) ([]byte, error) {
	enc, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fxfarm: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("fxfarm", flag.ExitOnError)
	var (
		programs = fs.String("programs", "all", "comma-separated programs, or \"all\"")
		ps       = fs.String("p", "0", "comma-separated processor counts (0 = program default)")
		seeds    = fs.String("seeds", "42", "comma-separated seeds or ranges (\"1-8\")")
		bitrates = fs.String("bitrates", "0", "comma-separated segment bit rates (0 = 10 Mb/s)")
		losses   = fs.String("loss", "0", "comma-separated frame-loss probabilities")
		media    = fs.String("media", "shared", "comma-separated media: shared (CSMA/CD segment), switched (full-duplex fabric)")
		n        = fs.Int("n", 0, "kernel problem size N (0 = paper default)")
		iters    = fs.Int("iters", 0, "kernel outer iterations (0 = paper default)")
		faults   = fs.String("faults", "", "fault script applied to every run")
		degrade  = fs.Bool("degrade", false, "re-form teams on survivors when a host dies")
		topology = fs.String("topology", "", `multi-segment topology spec or @file applied to every run (empty = single shared segment)`)
		jobs     = fs.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cacheDir = fs.String("cache", "", "content-addressed run-cache directory")
		outDir   = fs.String("out", "", "write per-run trace + report artifacts to this directory")
		jsonOut  = fs.String("json", "", "write the batch summary JSON to this file (\"-\" = stdout, the table moves to stderr)")
		quiet    = fs.Bool("q", false, "suppress per-run progress on stderr")
		prof     = profiling.Register(fs)
		ver      = version.Register(fs)
	)
	fs.Parse(args)
	version.ExitIfRequested(ver)

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()

	progList := core.ProgramNames()
	if *programs != "all" {
		progList = strings.Split(*programs, ",")
	}
	pList, err := parseInts(*ps)
	if err != nil {
		return fmt.Errorf("-p: %v", err)
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return err
	}
	rateList, err := parseFloats(*bitrates)
	if err != nil {
		return err
	}
	lossList, err := parseFloats(*losses)
	if err != nil {
		return err
	}
	mediaList := strings.Split(*media, ",")
	for i, m := range mediaList {
		if mediaList[i] = strings.TrimSpace(m); mediaList[i] != "shared" && mediaList[i] != "switched" {
			return fmt.Errorf("-media: unknown medium %q (have shared, switched)", m)
		}
	}
	topo, err := core.LoadTopology(*topology)
	if err != nil {
		return fmt.Errorf("-topology: %v", err)
	}

	// The cross product, one dimension at a time; the first varies slowest.
	jobList := []farm.Job{{
		Config: core.RunConfig{
			Params:      kernels.Params{N: *n, Iters: *iters},
			FaultScript: *faults,
			Degrade:     *degrade,
			Topology:    topo,
		},
		// The table reads only the Report, so a run keeps its packets
		// only when -out is going to write them.
		Stream: *outDir == "",
	}}
	cross := func(n int, set func(j *farm.Job, i int)) {
		next := make([]farm.Job, 0, len(jobList)*n)
		for _, j := range jobList {
			for i := range n {
				q := j
				set(&q, i)
				next = append(next, q)
			}
		}
		jobList = next
	}
	cross(len(progList), func(j *farm.Job, i int) {
		j.Config.Program = strings.TrimSpace(progList[i])
		j.Label = j.Config.Program
	})
	cross(len(pList), func(j *farm.Job, i int) {
		if j.Config.P = pList[i]; j.Config.P != 0 {
			j.Label += fmt.Sprintf("/P%d", j.Config.P)
		}
	})
	cross(len(seedList), func(j *farm.Job, i int) {
		j.Config.Seed = seedList[i]
		j.Label += fmt.Sprintf("/s%d", j.Config.Seed)
	})
	cross(len(rateList), func(j *farm.Job, i int) {
		if j.Config.BitRate = rateList[i]; j.Config.BitRate != 0 {
			j.Label += fmt.Sprintf("/%gMbps", j.Config.BitRate/1e6)
		}
	})
	cross(len(lossList), func(j *farm.Job, i int) {
		if j.Config.FrameLossProb = lossList[i]; j.Config.FrameLossProb != 0 {
			j.Label += fmt.Sprintf("/loss=%g", j.Config.FrameLossProb)
		}
	})
	cross(len(mediaList), func(j *farm.Job, i int) {
		if j.Config.Switched = mediaList[i] == "switched"; j.Config.Switched {
			j.Label += "/switched"
		}
	})

	// Memoize: a configuration listed twice runs once, whether or not
	// the first is still in flight when the second is submitted.
	opts := farm.Options{Workers: *jobs, Memoize: true}
	if !*quiet {
		opts.OnProgress = func(ev farm.Event) {
			how := "ran"
			switch {
			case ev.Cached:
				how = "cache hit"
			case ev.Deduped:
				how = "dedup"
			}
			fmt.Fprintf(stderr, "fxfarm: %s %s (%d/%d, %.1fs, eta %.0fs)\n",
				how, ev.Label, ev.Done, ev.Total, ev.Wall.Seconds(), ev.ETA.Seconds())
		}
	}
	fm, err := farm.Open(nil, *cacheDir, opts)
	if err != nil {
		return err
	}
	results := fm.RunBatch(jobList)

	table := stdout
	if *jsonOut == "-" {
		table = stderr
	}
	fmt.Fprintf(table, "%-28s %10s %10s %10s %10s %10s %8s %7s\n",
		"run", "KB/s", "fund (Hz)", "period (s)", "packets", "elapsed", "wall", "source")
	rows := make([]batchRow, 0, len(results))
	refused := 0
	for _, jr := range results {
		cfg := jr.Job.Config
		row := batchRow{
			Label: jr.Job.Label, Program: cfg.Program, P: cfg.P, Seed: cfg.Seed,
			BitRate: cfg.BitRate, Loss: cfg.FrameLossProb, Switched: cfg.Switched,
			WallS: jr.Wall.Seconds(), Cached: jr.Cached, Deduped: jr.Deduped, Key: jr.Key,
		}
		if jr.Err != nil {
			refused++
			row.Error = jr.Err.Error()
			fmt.Fprintf(table, "%-28s refused: %v\n", row.Label, jr.Err)
			rows = append(rows, row)
			continue
		}
		source := "run"
		switch {
		case jr.Cached:
			source = "cache"
		case jr.Deduped:
			source = "dedup"
		}
		f := jr.Report.AggSpectrum.DominantFreq()
		row.KBps = catalog.JSONFloat(jr.Report.AggKBps)
		row.FundamentalHz, row.PeriodSec = catalog.JSONFloat(f), catalog.JSONFloat(1/f)
		// A stream run (or one answered from the cache as such) carries
		// no packets; the fold counted them.
		row.Packets = jr.Report.AggSize.N
		// Elapsed is virtual simulation time; Wall is real time.
		row.ElapsedS = sim.Duration(jr.Result.Elapsed).Seconds()
		if jr.Result.RunErr != nil {
			row.RunFailed = jr.Result.RunErr.Error()
		}
		fmt.Fprintf(table, "%-28s %10.1f %10.3f %10.2f %10d %9.2fs %7.2fs %7s\n",
			row.Label, row.KBps, f, 1/f, row.Packets, row.ElapsedS, row.WallS, source)
		rows = append(rows, row)

		if *outDir != "" {
			if err := writeArtifacts(*outDir, jr); err != nil {
				return err
			}
		}
	}
	stats := fm.Stats()
	fmt.Fprintf(stderr, "fxfarm: jobs=%d executed=%d hits=%d dedup=%d workers=%d\n",
		stats.Submitted, stats.Executed, stats.CacheHits, stats.Deduped, fm.Workers())

	if *jsonOut != "" {
		enc, err := encodeRows(rows)
		if err != nil {
			return err
		}
		if *jsonOut == "-" {
			stdout.Write(enc)
		} else if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			return err
		}
	}
	if refused > 0 {
		return fmt.Errorf("%d of %d runs refused", refused, len(results))
	}
	return nil
}

// writeArtifacts stores one run's binary trace and characterization
// JSON under dir, named by the job label.
func writeArtifacts(dir string, jr farm.JobResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := strings.NewReplacer("/", "_", " ", "").Replace(jr.Job.Label)
	tf, err := os.Create(filepath.Join(dir, stem+".trace"))
	if err != nil {
		return err
	}
	if err := jr.Result.Trace.WriteBinary(tf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	rep, err := farm.MarshalReport(jr.Report)
	if err != nil {
		// Degenerate characterizations (NaN spectra) have no JSON form;
		// the trace artifact still captures the run.
		return nil
	}
	return os.WriteFile(filepath.Join(dir, stem+".report.json"), append(rep, '\n'), 0o644)
}

// parseInts parses a comma-separated list of integers, refusing a
// fraction rather than truncating it.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseSeeds accepts comma-separated seeds with "lo-hi" ranges.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if lo, hi, ok := strings.Cut(tok, "-"); ok && lo != "" {
			a, err1 := strconv.ParseInt(lo, 10, 64)
			b, err2 := strconv.ParseInt(hi, 10, 64)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", tok)
			}
			for v := a; v <= b; v++ {
				out = append(out, v)
			}
			continue
		}
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}
