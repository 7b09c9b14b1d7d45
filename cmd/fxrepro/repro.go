package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fxnet/internal/airshed"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
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

// pair is an (aggregate, representative connection) value.
type pair [2]float64

// published is one program's row of the paper's tables. A zero marks a
// value the paper does not report.
type published struct {
	kbps     pair       // Fig. 5, §6.2: average bandwidth (KB/s)
	pkt      pair       // Figs. 3, 8: average packet size (bytes)
	maxIA    pair       // Figs. 4, 9: maximum interarrival (ms)
	avgIA    pair       // Fig. 9: average interarrival (ms)
	modes    float64    // Fig. 3: packet-size modes
	fundHz   float64    // Fig. 7: spectral fundamental (Hz)
	peakKBps float64    // Fig. 10: burst peak (KB/s)
	scalesHz [3]float64 // Fig. 11: hour, chemistry and transport scales (Hz)
}

// paper is the one table of published values; every figure fxrepro
// prints sets its measurements beside these. The §6.2 ratio is
// AIRSHED's kbps[0]/kbps[1].
var paper = map[string]published{
	"sor":     {kbps: pair{5.6, 0.9}, pkt: pair{473, 577}, maxIA: pair{1728.7, 1797.0}, modes: 3, fundHz: 5},
	"2dfft":   {kbps: pair{754.8, 63.2}, pkt: pair{969, 977}, maxIA: pair{1395.8, 2732.6}, modes: 3, fundHz: 0.5},
	"t2dfft":  {kbps: pair{607.1, 148.6}, pkt: pair{912, 1442}, maxIA: pair{1301.6, 4216.7}},
	"seq":     {kbps: pair{58.3, 0}, pkt: pair{75, 0}, maxIA: pair{218.6, 0}, fundHz: 4},
	"hist":    {kbps: pair{29.6, 0}, pkt: pair{499, 0}, maxIA: pair{449.9, 0}, modes: 3, fundHz: 5},
	"airshed": {kbps: pair{32.7, 2.7}, pkt: pair{899, 889}, maxIA: pair{23448.6, 37018.5}, avgIA: pair{26.8, 317.4}, peakKBps: 1200, scalesHz: [3]float64{0.015, 0.2, 5}},
}

// span is a window of the aggregate bandwidth series, in seconds after
// the run's first packet.
type span struct{ from, to float64 }

// Figure 6 plots every program's first 10 s; figure 10 plots AIRSHED's
// 500 s and 60 s from t = 1000 s.
var (
	fig6Span   = span{0, 10}
	fig10Spans = []span{{1000, 1500}, {1000, 1060}}
)

// airshedBands are the frequency ranges (Hz) in which figure 11's three
// time scales are sought, in the order of published.scalesHz.
var airshedBands = [3]struct {
	name   string
	lo, hi float64
}{{"hour", 0.005, 0.05}, {"chemistry", 0.1, 0.5}, {"transport", 2, 8}}

// spikeCounts are the model sizes of the §7.2 convergence table, and
// spikeSepHz keeps a model's spikes apart, so that one spike's leakage
// bins do not count as more spikes.
var spikeCounts = []int{1, 2, 4, 8, 16, 32}

const spikeSepHz = 0.05

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

// repro regenerates every table and figure of the paper: collect runs
// the programs, render prints them. The stdout tables are a pure
// function of the run results, which are themselves byte-identical for
// any -j and any cache state — repro_test.go holds that contract.
func repro(opts reproOptions, stdout, stderr io.Writer) (farm.Stats, error) {
	reports, st, err := collect(opts, stderr)
	if err != nil {
		return st, err
	}
	return st, render(stdout, reports)
}

// collect runs every program through the experiment farm as a stream
// job and returns its report by program name.
func collect(opts reproOptions, stderr io.Writer) (map[string]*core.Report, farm.Stats, error) {
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
		return nil, farm.Stats{}, err
	}

	var jobs []farm.Job
	for _, name := range core.ProgramNames() {
		jobs = append(jobs, farm.Job{Label: name, Config: reproConfig(name, opts), Stream: true})
	}
	reports := map[string]*core.Report{}
	for _, jr := range f.RunBatch(jobs) {
		if jr.Err != nil {
			return nil, f.Stats(), jr.Err
		}
		reports[jr.Job.Label] = jr.Report
		if opts.CSVDir != "" {
			if err := writeSeriesCSV(opts.CSVDir, jr.Job.Label, jr.Report); err != nil {
				return nil, f.Stats(), err
			}
		}
	}

	st := f.Stats()
	fmt.Fprintf(stderr, "farm: jobs=%d executed=%d hits=%d dedup=%d workers=%d wall=%.2fs\n",
		st.Submitted, st.Executed, st.CacheHits, st.Deduped,
		f.Workers(), time.Since(start).Seconds())
	return reports, st, nil
}

// render prints every figure's rows beside the paper's values.
func render(w io.Writer, reports map[string]*core.Report) error {
	programs := core.ProgramNames()

	fmt.Fprintln(w, "\n=== Figures 1/2: kernels and their communication patterns ===")
	fmt.Fprintf(w, "%-8s %-12s %16s\n", "program", "pattern", "pairs at P=4")
	for _, name := range kernels.Names() {
		spec, _ := kernels.Lookup(name)
		pat := spec.QoS(spec.Params).Pattern
		fmt.Fprintf(w, "%-8s %-12v %16d\n", name, pat, pat.Connections(4))
	}

	fmt.Fprintln(w, "\n=== Figures 3/8: packet size statistics (bytes) ===")
	fmt.Fprintf(w, "%-8s %30s %30s %5s %16s %11s\n", "program", "aggregate min/max/avg/sd", "connection min/max/avg/sd", "modes", "paper avg a/c", "paper modes")
	for _, name := range programs {
		r, pa := reports[name], paper[name]
		fmt.Fprintf(w, "%-8s %30s %30s %5d %16s %11s\n", name, fmtSummary(r.AggSize), fmtSummary(r.ConnSize),
			r.SizeModes, pub2(pa.pkt, "%.0f"), pub(pa.modes, "%.0f"))
	}

	fmt.Fprintln(w, "\n=== Figures 4/9: interarrival statistics (ms) ===")
	fmt.Fprintf(w, "%-8s %34s %34s %18s %14s\n", "program", "aggregate min/max/avg/sd", "connection min/max/avg/sd", "paper max a/c", "paper avg a/c")
	for _, name := range programs {
		r, pa := reports[name], paper[name]
		fmt.Fprintf(w, "%-8s %34s %34s %18s %14s\n", name, fmtSummary(r.AggInterarrival), fmtSummary(r.ConnInterarrival),
			pub2(pa.maxIA, "%.1f"), pub2(pa.avgIA, "%.1f"))
	}

	fmt.Fprintln(w, "\n=== Figure 5 / §6.2: average bandwidth (KB/s) ===")
	fmt.Fprintf(w, "%-8s %10s %10s %12s %12s\n", "program", "agg", "conn", "paper agg", "paper conn")
	for _, name := range programs {
		r, pa := reports[name], paper[name]
		conn := "-"
		if r.ConnSize.N > 0 {
			conn = fmt.Sprintf("%.1f", r.ConnKBps)
		}
		fmt.Fprintf(w, "%-8s %10.1f %10s %12s %12s\n", name, r.AggKBps, conn, pub(pa.kbps[0], "%.1f"), pub(pa.kbps[1], "%.1f"))
	}
	air, pa := reports["airshed"], paper["airshed"]
	fmt.Fprintf(w, "airshed  agg/conn ratio %.1f (paper %.1f)\n", air.AggKBps/air.ConnKBps, pa.kbps[0]/pa.kbps[1])

	fmt.Fprintln(w, "\n=== Figures 6/10: 10 ms-windowed bandwidth over the plotted spans (KB/s) ===")
	fmt.Fprintf(w, "%-8s %12s %7s %7s %6s %8s %11s\n", "program", "span (s)", "bins", "peak", "idle", "mean", "paper peak")
	spanRow := func(name string, sp span, paperPeak string) {
		r := reports[name]
		bins, peak, idle := window(r, sp)
		idleShare := 0.0
		if bins > 0 {
			idleShare = 100 * float64(idle) / float64(bins)
		}
		fmt.Fprintf(w, "%-8s %12s %7d %7.0f %5.1f%% %8.1f %11s\n", name, fmt.Sprintf("%g-%g", sp.from, sp.to),
			bins, peak, idleShare, r.AggKBps, paperPeak)
	}
	for _, name := range programs {
		spanRow(name, fig6Span, "-")
	}
	for _, sp := range fig10Spans {
		spanRow("airshed", sp, pub(pa.peakKBps, "%.0f"))
	}

	fmt.Fprintln(w, "\n=== Figures 7/11: spectral spikes of the bandwidth (Hz) ===")
	fmt.Fprintf(w, "%-8s %-36s %-24s %s\n", "program", "aggregate", "connection", "paper fundamental")
	for _, name := range programs {
		r := reports[name]
		fmt.Fprintf(w, "%-8s %-36s %-24s %s\n", name, spikes(r.AggSpectrum, 4), spikes(r.ConnSpectrum, 3), pub(paper[name].fundHz, "%g"))
	}

	fmt.Fprintln(w, "\n=== Figure 11: AIRSHED time scales (strongest bin in each band) ===")
	fmt.Fprintf(w, "%-10s %12s %10s %10s\n", "scale", "band (Hz)", "measured", "paper")
	for i, band := range airshedBands {
		fmt.Fprintf(w, "%-10s %12s %10.4g %10g\n", band.name, fmt.Sprintf("%g-%g", band.lo, band.hi),
			strongestIn(air.AggSpectrum, band.lo, band.hi), pa.scalesHz[i])
	}
	for _, zoom := range []float64{0.1, 1, 20} {
		freq, _ := air.AggSpectrum.Slice(zoom)
		fmt.Fprintf(w, "0-%g Hz view: %d bins\n", zoom, len(freq))
	}

	fmt.Fprintln(w, "\n=== §7.2: truncated Fourier models of the aggregate bandwidth (NRMSE by spike count k) ===")
	fmt.Fprintf(w, "%-8s", "program")
	for _, k := range spikeCounts {
		fmt.Fprintf(w, " %7s", fmt.Sprintf("k=%d", k))
	}
	fmt.Fprintf(w, " %8s %9s\n", "corr", "energy")
	for _, name := range programs {
		mets := fits(reports[name])
		fmt.Fprintf(w, "%-8s", name)
		for _, met := range mets {
			fmt.Fprintf(w, " %7.4f", met.NRMSE)
		}
		last := mets[len(mets)-1]
		fmt.Fprintf(w, " %8.3f %9.3f\n", last.Correlation, last.EnergyFraction)
	}

	fmt.Fprintln(w, "\n=== §7.3: QoS negotiation on a 10 Mb/s network ===")
	net := qos.NewNetwork(1.25e6)
	fmt.Fprintf(w, "%-8s %4s %12s %12s %14s\n", "program", "P", "B (KB/s)", "tbi (s)", "mean (KB/s)")
	for _, name := range []string{"sor", "2dfft", "hist"} {
		spec, _ := kernels.Lookup(name)
		off, err := net.Negotiate(spec.QoS(spec.Params), 32)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %4d %12.1f %12.4f %14.1f\n", off.Program, off.P, off.BurstBandwidth/1000, off.BurstInterval, off.MeanBandwidth/1000)
	}
	return nil
}

// window returns the bins, peak and idle bins of r's aggregate series
// within sp.
func window(r *core.Report, sp span) (bins int, peak float64, idle int) {
	lo := min(int(math.Round(sp.from/r.SeriesDT)), len(r.AggSeries))
	hi := min(int(math.Round(sp.to/r.SeriesDT)), len(r.AggSeries))
	for _, v := range r.AggSeries[lo:hi] {
		peak = max(peak, v)
		if v == 0 {
			idle++
		}
	}
	return hi - lo, peak, idle
}

// strongestIn returns the frequency of the strongest spectral bin in
// [lo, hi) Hz, or 0 if no bin falls there.
func strongestIn(s *dsp.Spectrum, lo, hi float64) float64 {
	best, bestP := 0.0, -1.0
	for i, f := range s.Freq {
		if f >= lo && f < hi && s.Power[i] > bestP {
			best, bestP = f, s.Power[i]
		}
	}
	return best
}

// fits are the §7.2 models of r's aggregate bandwidth, one per spike
// count.
func fits(r *core.Report) []model.FitMetrics {
	mets := make([]model.FitMetrics, len(spikeCounts))
	for i, k := range spikeCounts {
		_, mets[i] = model.Fit(r.AggSeries, r.SeriesDT, k, spikeSepHz)
	}
	return mets
}

// spikes renders the k strongest spikes of s, or "-" without a spectrum.
func spikes(s *dsp.Spectrum, k int) string {
	if s == nil {
		return "-"
	}
	var out []string
	for _, p := range s.Peaks(k, 2*s.DF) {
		out = append(out, fmt.Sprintf("%.3g", p.Freq))
	}
	return strings.Join(out, " ")
}

// pub renders a published value, "-" when the paper does not report it.
func pub(v float64, verb string) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf(verb, v)
}

// pub2 renders a published (aggregate, connection) pair.
func pub2(p pair, verb string) string {
	if p == (pair{}) {
		return "-"
	}
	return pub(p[0], verb) + "/" + pub(p[1], verb)
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
