package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fxnet/internal/airshed"
	"fxnet/internal/core"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
	"fxnet/internal/model"
	"fxnet/internal/qos"
	"fxnet/internal/stats"
)

// reproOptions configures one reproduction pass.
type reproOptions struct {
	Quick bool // reduced problem sizes (fast, non-paper regime)
	Tiny  bool // minimal problem sizes (CI smoke / determinism tests)
	Seed  int64
	// CSVDir, when set, receives per-program bandwidth-series CSVs.
	CSVDir string
	// Jobs bounds concurrent simulations; <= 0 selects GOMAXPROCS.
	Jobs int
	// CacheDir enables the on-disk run cache. The runs are stream jobs,
	// so new entries are spectrum-level; a full-run entry another tool
	// left under the same key answers too, with a Report that is
	// bit-identical, SD included.
	CacheDir string
}

var paper = map[string][3]float64{
	// program: aggregate KB/s, connection KB/s (-1 = not reported), avg pkt.
	"sor":     {5.6, 0.9, 473},
	"2dfft":   {754.8, 63.2, 969},
	"t2dfft":  {607.1, 148.6, 912},
	"seq":     {58.3, -1, 75},
	"hist":    {29.6, -1, 499},
	"airshed": {32.7, 2.7, 899},
}

// reproConfig builds the run configuration for one program at the
// requested scale.
func reproConfig(name string, opts reproOptions) core.RunConfig {
	cfg := core.RunConfig{Program: name, Seed: opts.Seed}
	switch {
	case opts.Tiny:
		if name == "airshed" {
			cfg.AirshedParams = airshed.Params{Layers: 2, Species: 4, Grid: 64, Steps: 1, Hours: 2, Band: 2}
		} else {
			cfg.Params = kernels.Params{N: 32, Iters: 4}
		}
	case opts.Quick:
		cfg = core.QuickConfig(name, 0, opts.Seed)
	}
	return cfg
}

// repro regenerates every table and figure of the paper, running the
// programs through the experiment farm. The stdout tables are a pure
// function of the run results, which are themselves byte-identical for
// any -j and any cache state — repro_test.go holds that contract.
func repro(opts reproOptions, stdout, stderr io.Writer) (farm.Stats, error) {
	start := time.Now()
	f, err := farm.Open(nil, opts.CacheDir, farm.Options{
		Workers: opts.Jobs,
		OnProgress: func(ev farm.Event) {
			how := "ran"
			if ev.Cached {
				how = "cache hit"
			}
			fmt.Fprintf(stderr, "%s %s (%d/%d, %.1fs", how, ev.Label, ev.Done, ev.Total, ev.Wall.Seconds())
			if ev.ETA > 0 && ev.Done < ev.Total {
				fmt.Fprintf(stderr, ", eta %.0fs", ev.ETA.Seconds())
			}
			fmt.Fprintln(stderr, ")")
		},
	})
	if err != nil {
		return farm.Stats{}, err
	}

	var jobs []farm.Job
	for _, name := range core.ProgramNames() {
		jobs = append(jobs, farm.Job{Label: name, Config: reproConfig(name, opts), Stream: true})
	}
	reports := map[string]*core.Report{}
	for _, jr := range f.RunBatch(jobs) {
		if jr.Err != nil {
			return f.Stats(), jr.Err
		}
		reports[jr.Job.Label] = jr.Report
		if opts.CSVDir != "" {
			if err := writeSeriesCSV(opts.CSVDir, jr.Job.Label, jr.Report); err != nil {
				return f.Stats(), err
			}
		}
	}

	order := []string{"sor", "2dfft", "t2dfft", "seq", "hist"}

	fmt.Fprintln(stdout, "\n=== Figures 3/8: packet size statistics (bytes) ===")
	fmt.Fprintf(stdout, "%-8s %30s %30s %10s\n", "program", "aggregate min/max/avg/sd", "connection min/max/avg/sd", "paper avg")
	for _, name := range append(order, "airshed") {
		r := reports[name]
		fmt.Fprintf(stdout, "%-8s %30s %30s %10.0f\n", name, fmtSummary(r.AggSize), fmtSummary(r.ConnSize), paper[name][2])
	}

	fmt.Fprintln(stdout, "\n=== Figures 4/9: interarrival statistics (ms) ===")
	fmt.Fprintf(stdout, "%-8s %34s %34s\n", "program", "aggregate min/max/avg/sd", "connection min/max/avg/sd")
	for _, name := range append(order, "airshed") {
		r := reports[name]
		fmt.Fprintf(stdout, "%-8s %34s %34s\n", name, fmtSummary(r.AggInterarrival), fmtSummary(r.ConnInterarrival))
	}

	fmt.Fprintln(stdout, "\n=== Figure 5 / §6.2: average bandwidth (KB/s) ===")
	fmt.Fprintf(stdout, "%-8s %10s %10s %12s %12s\n", "program", "agg", "conn", "paper agg", "paper conn")
	for _, name := range append(order, "airshed") {
		r := reports[name]
		pa := paper[name]
		conn := "-"
		if r.ConnSize.N > 0 {
			conn = fmt.Sprintf("%.1f", r.ConnKBps)
		}
		pconn := "-"
		if pa[1] >= 0 {
			pconn = fmt.Sprintf("%.1f", pa[1])
		}
		fmt.Fprintf(stdout, "%-8s %10.1f %10s %12.1f %12s\n", name, r.AggKBps, conn, pa[0], pconn)
	}

	fmt.Fprintln(stdout, "\n=== Figures 6/10: burstiness of the 10 ms-windowed bandwidth ===")
	for _, name := range append(order, "airshed") {
		r := reports[name]
		peak := 0.0
		idle := 0
		for _, v := range r.AggSeries {
			if v > peak {
				peak = v
			}
			if v == 0 {
				idle++
			}
		}
		fmt.Fprintf(stdout, "%-8s peak %7.0f KB/s, mean %7.1f KB/s, idle bins %4.1f%%\n",
			name, peak, r.AggKBps, 100*float64(idle)/float64(len(r.AggSeries)))
	}

	fmt.Fprintln(stdout, "\n=== Figures 7/11: spectral spikes of the bandwidth ===")
	for _, name := range append(order, "airshed") {
		r := reports[name]
		fmt.Fprintf(stdout, "%-8s", name)
		for _, p := range r.AggSpectrum.Peaks(4, 2*r.AggSpectrum.DF) {
			fmt.Fprintf(stdout, "  %.3g Hz", p.Freq)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "\n=== §7.2: truncated Fourier models (aggregate bandwidth) ===")
	for _, name := range append(order, "airshed") {
		r := reports[name]
		for _, k := range []int{2, 8, 32} {
			m, met := model.Fit(r.AggSeries, r.SeriesDT, k, 2*r.AggSpectrum.DF)
			_ = m
			fmt.Fprintf(stdout, "%-8s k=%2d  NRMSE=%.4f  corr=%.3f  energy=%.3f\n",
				name, k, met.NRMSE, met.Correlation, met.EnergyFraction)
		}
	}

	fmt.Fprintln(stdout, "\n=== §7.3: QoS negotiation on a 10 Mb/s network ===")
	net := qos.NewNetwork(1.25e6)
	fmt.Fprintf(stdout, "%-8s %4s %12s %12s\n", "program", "P", "B (KB/s)", "tbi (s)")
	for _, name := range []string{"sor", "2dfft", "hist"} {
		spec, _ := kernels.Lookup(name)
		off, err := net.Negotiate(spec.QoS(spec.Params), 32)
		if err != nil {
			return f.Stats(), err
		}
		fmt.Fprintf(stdout, "%-8s %4d %12.1f %12.4f\n", off.Program, off.P, off.BurstBandwidth/1000, off.BurstInterval)
	}

	st := f.Stats()
	fmt.Fprintf(stderr, "farm: jobs=%d executed=%d hits=%d dedup=%d workers=%d wall=%.2fs\n",
		st.Submitted, st.Executed, st.CacheHits, st.Deduped,
		f.Workers(), time.Since(start).Seconds())
	return st, nil
}

func fmtSummary(s stats.Summary) string {
	if s.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f/%.1f/%.1f/%.1f", s.Min, s.Max, s.Mean, s.SD)
}

func writeSeriesCSV(dir, name string, rep *core.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".bandwidth.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "t_sec,kbps")
	for i, v := range rep.AggSeries {
		fmt.Fprintf(f, "%.3f,%.3f\n", float64(i)*rep.SeriesDT, v)
	}
	return f.Close()
}
