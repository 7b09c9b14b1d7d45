package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
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
	// CacheDir enables the on-disk run cache: spectrum-level entries for
	// stream jobs, full-run entries for trace jobs. A full-run entry
	// answers a stream job too, with a bit-identical Report.
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

// scaled shrinks cfg to the requested scale: -tiny and -quick replace
// its problem size, so the figure and ablation runs shrink together,
// and the paper scale keeps it.
func scaled(cfg core.RunConfig, opts reproOptions) core.RunConfig {
	switch {
	case opts.Tiny && cfg.Program == "airshed":
		cfg.AirshedParams = airshed.Params{Layers: 2, Species: 4, Grid: 64, Steps: 1, Hours: 2, Band: 2}
	case opts.Tiny:
		cfg.Params = kernels.Params{N: 32, Iters: 4}
	case opts.Quick:
		q := core.QuickConfig(cfg.Program, cfg.P, cfg.Seed)
		cfg.Params, cfg.AirshedParams = q.Params, q.AirshedParams
	}
	return cfg
}

// reproConfig builds the run configuration for one program at the
// requested scale.
func reproConfig(name string, opts reproOptions) core.RunConfig {
	return scaled(core.RunConfig{Program: name, Seed: opts.Seed}, opts)
}

// runs are one reproduction's completed jobs by label: each program's
// figure run under its name, and the ablation runs (ablations.go).
type runs map[string]farm.JobResult

func (r runs) report(label string) *core.Report { return r[label].Report }

// repro regenerates every table and figure of the paper and every
// ablation: collect runs them, render prints them. The stdout document
// is a pure function of the run results, which are themselves
// byte-identical for any -j and any cache state — repro_test.go holds
// that contract.
func repro(opts reproOptions, stdout, stderr io.Writer) (farm.Stats, error) {
	r, st, err := collect(opts, stderr)
	if err != nil {
		return st, err
	}
	return st, render(stdout, r)
}

// collect runs every program and every ablation through the experiment
// farm in one batch. The figure runs are stream jobs, except SEQ's,
// whose packets the window-size ablation re-bins.
func collect(opts reproOptions, stderr io.Writer) (runs, farm.Stats, error) {
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
		jobs = append(jobs, farm.Job{Label: name, Config: reproConfig(name, opts), Stream: name != "seq"})
	}
	for _, j := range ablationJobs() {
		j.Config = scaled(j.Config, opts)
		jobs = append(jobs, j)
	}
	r := runs{}
	for i, jr := range f.RunBatch(jobs) {
		if jr.Err != nil {
			return nil, f.Stats(), jr.Err
		}
		r[jr.Job.Label] = jr
		if opts.CSVDir != "" && i < len(core.ProgramNames()) {
			if err := writeSeriesCSV(opts.CSVDir, jr.Job.Label, jr.Report); err != nil {
				return nil, f.Stats(), err
			}
		}
	}

	st := f.Stats()
	fmt.Fprintf(stderr, "farm: jobs=%d executed=%d hits=%d dedup=%d workers=%d wall=%.2fs\n",
		st.Submitted, st.Executed, st.CacheHits, st.Deduped,
		f.Workers(), time.Since(start).Seconds())
	return r, st, nil
}

// render writes the Markdown document: every figure's rows beside the
// paper's values, then the ablations beside the claims they test.
func render(w io.Writer, r runs) error {
	programs := core.ProgramNames()
	fmt.Fprint(w, intro)

	section(w, "Calibration", whyCalibration)
	table(w, "class", "rate (ops/s)")
	for _, spec := range kernels.All {
		for _, class := range slices.Sorted(maps.Keys(spec.Rates)) {
			row(w, "`%s` | %.0f", class, spec.Rates[class])
		}
	}
	for _, class := range slices.Sorted(maps.Keys(airshed.Rates)) {
		row(w, "`%s` | %.0f", class, airshed.Rates[class])
	}

	section(w, "Figures 1/2 — kernels and their communication patterns (`TestKernelTrafficMatchesCompiler`)", whyPatterns)
	table(w, "program", "pattern", "pairs at P=4")
	for _, name := range kernels.Names() {
		spec, _ := kernels.Lookup(name)
		pat := spec.QoS(spec.Params).Pattern
		row(w, "%s | %v | %d", name, pat, pat.Connections(4))
	}

	section(w, "Figures 3/8 — packet sizes, bytes (AIRSHED connection mean within 200 B of aggregate)", whySizes)
	table(w, "program", "aggregate min/max/avg/sd", "connection min/max/avg/sd", "modes", "paper avg a/c", "paper modes")
	for _, name := range programs {
		rep, pa := r.report(name), paper[name]
		row(w, "%s | %s | %s | %d | %s | %s", name, fmtSummary(rep.AggSize), fmtSummary(rep.ConnSize),
			rep.SizeModes, pub2(pa.pkt, "%.0f"), pub(pa.modes, "%.0f"))
	}

	section(w, "Figures 4/9 — interarrival times, ms (AIRSHED max gap above SOR's)", whyGaps)
	table(w, "program", "aggregate min/max/avg/sd", "connection min/max/avg/sd", "paper max a/c", "paper avg a/c")
	for _, name := range programs {
		rep, pa := r.report(name), paper[name]
		row(w, "%s | %s | %s | %s | %s", name, fmtSummary(rep.AggInterarrival), fmtSummary(rep.ConnInterarrival),
			pub2(pa.maxIA, "%.1f"), pub2(pa.avgIA, "%.1f"))
	}

	section(w, "Figure 5 / §6.2 — average bandwidth, KB/s (ordering; AIRSHED ratio in 8–16)", whyBandwidth)
	table(w, "program", "agg", "conn", "paper agg", "paper conn")
	for _, name := range programs {
		rep, pa := r.report(name), paper[name]
		conn := "-"
		if rep.ConnSize.N > 0 {
			conn = fmt.Sprintf("%.1f", rep.ConnKBps)
		}
		row(w, "%s | %.1f | %s | %s | %s", name, rep.AggKBps, conn, pub(pa.kbps[0], "%.1f"), pub(pa.kbps[1], "%.1f"))
	}
	air, pa := r.report("airshed"), paper["airshed"]
	fmt.Fprintf(w, "\nAIRSHED aggregate/connection ratio: %.1f (paper %.1f).\n", air.AggKBps/air.ConnKBps, pa.kbps[0]/pa.kbps[1])

	section(w, "Figures 6/10 — 10 ms-windowed bandwidth over the plotted spans, KB/s (peak ≥ 1.5 × mean; AIRSHED 500 s peak ≥ 800)", whyBursts)
	table(w, "program", "span (s)", "bins", "peak", "idle", "mean", "paper peak")
	spanRow := func(name string, sp span, paperPeak string) {
		rep := r.report(name)
		bins, peak, idle := window(rep, sp)
		idleShare := 0.0
		if bins > 0 {
			idleShare = 100 * float64(idle) / float64(bins)
		}
		row(w, "%s | %g–%g | %d | %.0f | %.1f %% | %.1f | %s", name, sp.from, sp.to, bins, peak, idleShare, rep.AggKBps, paperPeak)
	}
	for _, name := range programs {
		spanRow(name, fig6Span, "-")
	}
	for _, sp := range fig10Spans {
		spanRow("airshed", sp, pub(pa.peakKBps, "%.0f"))
	}

	section(w, "Figures 7/11 — spectral spikes of the bandwidth, Hz (AIRSHED hour peak in 0.008–0.03 Hz)", whySpectra)
	table(w, "program", "aggregate", "connection", "paper fundamental")
	for _, name := range programs {
		rep := r.report(name)
		row(w, "%s | %s | %s | %s", name, spikes(rep.AggSpectrum, 4), spikes(rep.ConnSpectrum, 3), pub(paper[name].fundHz, "%g"))
	}
	table(w, "AIRSHED scale", "band (Hz)", "strongest bin (Hz)", "paper")
	for i, band := range airshedBands {
		row(w, "%s | %g–%g | %.4g | %g", band.name, band.lo, band.hi, strongestIn(air.AggSpectrum, band.lo, band.hi), pa.scalesHz[i])
	}
	var views []any
	for _, zoom := range []float64{0.1, 1, 20} {
		freq, _ := air.AggSpectrum.Slice(zoom)
		views = append(views, len(freq))
	}
	fmt.Fprintf(w, "\nAIRSHED's 0–0.1, 0–1 and 0–20 Hz views hold %d, %d and %d bins.\n", views...)

	section(w, "§7.2 — truncated Fourier models of the aggregate bandwidth, NRMSE by spike count k (2DFFT monotone in k)", whyModels)
	cols := []string{"program"}
	for _, k := range spikeCounts {
		cols = append(cols, fmt.Sprintf("k=%d", k))
	}
	table(w, append(cols, "corr", "energy")...)
	for _, name := range programs {
		mets := fits(r.report(name))
		cells := name
		for _, met := range mets {
			cells += fmt.Sprintf(" | %.4f", met.NRMSE)
		}
		last := mets[len(mets)-1]
		row(w, "%s | %.3f | %.3f", cells, last.Correlation, last.EnergyFraction)
	}

	section(w, "§7.3 — QoS negotiation on a 10 Mb/s network (`TestAnalyticTableIsTheRegistry`; a refused negotiation fails)", whyNegotiation)
	net := qos.NewNetwork(1.25e6)
	table(w, "program", "P", "B (KB/s)", "tbi (s)", "mean (KB/s)")
	for _, name := range []string{"sor", "2dfft", "hist"} {
		spec, _ := kernels.Lookup(name)
		off, err := net.Negotiate(spec.QoS(spec.Params), 32)
		if err != nil {
			return err
		}
		row(w, "%s | %d | %.1f | %.4f | %.1f", off.Program, off.P, off.BurstBandwidth/1000, off.BurstInterval, off.MeanBandwidth/1000)
	}

	renderAblations(w, measure(r))
	fmt.Fprint(w, notes)
	return nil
}

// section starts a Markdown section: its heading, then its prose.
func section(w io.Writer, title, why string) { fmt.Fprintf(w, "\n## %s\n\n%s", title, why) }

// table starts a pipe table with the given columns.
func table(w io.Writer, cols ...string) {
	fmt.Fprintf(w, "\n| %s |\n|%s\n", strings.Join(cols, " | "), strings.Repeat("---|", len(cols)))
}

// row writes one table row; format separates its cells with " | ".
func row(w io.Writer, format string, args ...any) { fmt.Fprintf(w, "| "+format+" |\n", args...) }

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
