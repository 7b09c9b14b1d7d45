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

// fields are the paper's published quantities, in print order: the
// name of each graded row (program/name) and the verb its block prints
// the measured value with. KB/s, bytes, ms and Hz; peak-kbps is figure
// 10's 500 s peak, and the last three are figure 11's time scales.
var fields = []struct{ name, verb string }{
	{"kbps", "%.1f"}, {"conn-kbps", "%.1f"}, {"pkt", "%.1f"}, {"conn-pkt", "%.1f"}, {"max-ia", "%.1f"}, {"conn-max-ia", "%.1f"},
	{"avg-ia", "%.1f"}, {"conn-avg-ia", "%.1f"}, {"modes", "%.0f"}, {"fund-hz", "%.3g"}, {"peak-kbps", "%.0f"},
	{"hour-hz", "%.4g"}, {"chemistry-hz", "%.4g"}, {"transport-hz", "%.4g"},
}

// published is one program's row of the paper's tables, by field name;
// a value the paper does not report is absent.
type published map[string]float64

// paper is the one table of published values, each graded once against
// measured.
var paper = map[string]published{
	"sor":    {"kbps": 5.6, "conn-kbps": 0.9, "pkt": 473, "conn-pkt": 577, "max-ia": 1728.7, "conn-max-ia": 1797.0, "modes": 3, "fund-hz": 5},
	"2dfft":  {"kbps": 754.8, "conn-kbps": 63.2, "pkt": 969, "conn-pkt": 977, "max-ia": 1395.8, "conn-max-ia": 2732.6, "modes": 3, "fund-hz": 0.5},
	"t2dfft": {"kbps": 607.1, "conn-kbps": 148.6, "pkt": 912, "conn-pkt": 1442, "max-ia": 1301.6, "conn-max-ia": 4216.7},
	"seq":    {"kbps": 58.3, "pkt": 75, "max-ia": 218.6, "fund-hz": 4},
	"hist":   {"kbps": 29.6, "pkt": 499, "max-ia": 449.9, "modes": 3, "fund-hz": 5},
	"airshed": {"kbps": 32.7, "conn-kbps": 2.7, "pkt": 899, "conn-pkt": 889, "max-ia": 23448.6, "conn-max-ia": 37018.5,
		"avg-ia": 26.8, "conn-avg-ia": 317.4, "peak-kbps": 1200, "hour-hz": 0.015, "chemistry-hz": 0.2, "transport-hz": 5},
}

// measured is a program's row as its figure run gives it.
func measured(r *core.Report) published {
	_, peak, _ := window(r, fig10Spans[0])
	m := published{"kbps": r.AggKBps, "conn-kbps": r.ConnKBps, "pkt": r.AggSize.Mean, "conn-pkt": r.ConnSize.Mean,
		"max-ia": r.AggInterarrival.Max, "conn-max-ia": r.ConnInterarrival.Max, "avg-ia": r.AggInterarrival.Mean,
		"conn-avg-ia": r.ConnInterarrival.Mean, "modes": float64(r.SizeModes), "fund-hz": r.AggSpectrum.DominantFreq(), "peak-kbps": peak}
	for _, band := range airshedBands {
		m[band.name+"-hz"] = strongestIn(r.AggSpectrum, band.lo, band.hi)
	}
	return m
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
// time scales are sought.
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
	_, err = render(stdout, r)
	return st, err
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

// render writes the Markdown document: every figure's and ablation's
// block under the claims it tests, ✓ or ✗, and the paper's values graded
// in one table. It returns the claims; they are stated nowhere else.
func render(w io.Writer, r runs) ([]claim, error) {
	programs := core.ProgramNames()
	d := &doc{Writer: w}
	fmt.Fprintln(d, intro)

	d.section("Calibration", whyCalibration)
	table(d, "class", "rate (ops/s)")
	for _, spec := range kernels.All {
		for _, class := range slices.Sorted(maps.Keys(spec.Rates)) {
			row(d, "`%s` | %.0f", class, spec.Rates[class])
		}
	}
	for _, class := range slices.Sorted(maps.Keys(airshed.Rates)) {
		row(d, "`%s` | %.0f", class, airshed.Rates[class])
	}

	d.section("Figures 1/2 — kernels and their communication patterns", whyPatterns)
	table(d, "program", "pattern", "pairs at P=4")
	for _, name := range kernels.Names() {
		spec, _ := kernels.Lookup(name)
		pat := spec.QoS(spec.Params).Pattern
		row(d, "%s | %v | %d", name, pat, pat.Connections(4))
	}

	air, sor := r.report("airshed"), r.report("sor")
	d.section("Figures 3/8 — packet sizes, bytes", whySizes, says(math.Abs(air.AggSize.Mean-air.ConnSize.Mean) <= 200,
		"AIRSHED connection mean %.1f B within 200 B of aggregate %.1f B", air.ConnSize.Mean, air.AggSize.Mean))
	table(d, "program", "aggregate min/max/avg/sd", "connection min/max/avg/sd", "modes")
	for _, name := range programs {
		rep := r.report(name)
		row(d, "%s | %s | %s | %d", name, fmtSummary(rep.AggSize), fmtSummary(rep.ConnSize), rep.SizeModes)
	}

	d.section("Figures 4/9 — interarrival times, ms", whyGaps, says(air.AggInterarrival.Max > sor.AggInterarrival.Max,
		"AIRSHED max interarrival %.1f ms above SOR's %.1f ms", air.AggInterarrival.Max, sor.AggInterarrival.Max))
	table(d, "program", "aggregate min/max/avg/sd", "connection min/max/avg/sd")
	for _, name := range programs {
		rep := r.report(name)
		row(d, "%s | %s | %s", name, fmtSummary(rep.AggInterarrival), fmtSummary(rep.ConnInterarrival))
	}

	kbps := func(name string) float64 { return r.report(name).AggKBps }
	ratio := air.AggKBps / air.ConnKBps
	d.section("Figure 5 / §6.2 — average bandwidth, KB/s", whyBandwidth,
		says(kbps("2dfft") > kbps("t2dfft") && kbps("t2dfft") > kbps("seq") && kbps("seq") > kbps("sor") && kbps("hist") > kbps("sor"),
			"aggregate KB/s ordered 2DFFT %.1f > T2DFFT %.1f > SEQ %.1f > SOR %.1f < HIST %.1f", kbps("2dfft"), kbps("t2dfft"), kbps("seq"), kbps("sor"), kbps("hist")),
		says(within(ratio, 8, 16), "AIRSHED aggregate/connection ratio %.1f in 8–16", ratio))
	table(d, "program", "agg", "conn")
	for _, name := range programs {
		rep := r.report(name)
		row(d, "%s | %.1f | %s", name, rep.AggKBps, orDash("%.1f", rep.ConnKBps))
	}

	var bursts []claim
	for _, name := range kernels.Names() {
		rep := r.report(name)
		_, peak, _ := window(rep, fig6Span)
		bursts = append(bursts, says(peak >= 1.5*rep.AggKBps, "%s: peak %.0f ≥ 1.5 × mean %.1f KB/s over %g–%g s",
			name, peak, rep.AggKBps, fig6Span.from, fig6Span.to))
	}
	sp := fig10Spans[0]
	_, peak, _ := window(air, sp)
	d.section("Figures 6/10 — 10 ms-windowed bandwidth over the plotted spans, KB/s", whyBursts,
		append(bursts, says(peak >= 800, "airshed: peak %.0f ≥ 800 KB/s over %g–%g s", peak, sp.from, sp.to))...)
	table(d, "program", "span (s)", "bins", "peak", "idle", "mean")
	spanRow := func(name string, sp span) {
		rep := r.report(name)
		bins, peak, idle := window(rep, sp)
		idleShare := 100 * float64(idle) / float64(max(bins, 1))
		row(d, "%s | %g–%g | %d | %.0f | %.1f %% | %.1f", name, sp.from, sp.to, bins, peak, idleShare, rep.AggKBps)
	}
	for _, name := range programs {
		spanRow(name, fig6Span)
	}
	for _, sp := range fig10Spans {
		spanRow("airshed", sp)
	}

	hour := strongestIn(air.AggSpectrum, airshedBands[0].lo, airshedBands[0].hi)
	d.section("Figures 7/11 — spectral spikes of the bandwidth, Hz", whySpectra,
		says(within(hour, 0.008, 0.03), "AIRSHED hour-band peak %s Hz in 0.008–0.03 Hz", orDash("%.4g", hour)))
	table(d, "program", "aggregate", "connection")
	for _, name := range programs {
		rep := r.report(name)
		row(d, "%s | %s | %s", name, spikes(rep.AggSpectrum, 4), spikes(rep.ConnSpectrum, 3))
	}
	table(d, "AIRSHED scale", "band (Hz)", "strongest bin (Hz)")
	for _, band := range airshedBands {
		row(d, "%s | %g–%g | %s", band.name, band.lo, band.hi, orDash("%.4g", strongestIn(air.AggSpectrum, band.lo, band.hi)))
	}
	var views []any
	for _, zoom := range []float64{0.1, 1, 20} {
		freq, _ := air.AggSpectrum.Slice(zoom)
		views = append(views, len(freq))
	}
	fmt.Fprintf(d, "\nAIRSHED's 0–0.1, 0–1 and 0–20 Hz views hold %d, %d and %d bins.\n", views...)

	d.section("Paper values", whyGrades)
	fmt.Fprintf(d, "\nGrades on measured/paper: ✓ in %g–%g, ~ in %g–%g, ✗ beyond; modes are ✓ only when equal.\n",
		closeLo, closeHi, nearLo, nearHi)
	table(d, "row", "paper", "measured", "ratio", "grade", "reason")
	for _, g := range grades(r) {
		row(d, "`%s` | %g | %s | %.3f | %s | %s", g.key, g.paper, orDash(g.verb, g.ours), g.ours/g.paper, g.grade, reasons[g.key])
	}

	mets := fits(r.report("2dfft"))
	converges := true
	for i := 1; i < len(mets); i++ {
		converges = converges && mets[i].NRMSE <= mets[i-1].NRMSE+1e-9
	}
	d.section("§7.2 — truncated Fourier models of the aggregate bandwidth, NRMSE by spike count k", whyModels,
		says(converges, "2DFFT NRMSE never rises as k grows"))
	cols := []string{"program"}
	for _, k := range spikeCounts {
		cols = append(cols, fmt.Sprintf("k=%d", k))
	}
	table(d, append(cols, "corr", "energy")...)
	for _, name := range programs {
		mets := fits(r.report(name))
		cells := name
		for _, met := range mets {
			cells += fmt.Sprintf(" | %.4f", met.NRMSE)
		}
		last := mets[len(mets)-1]
		row(d, "%s | %.3f | %.3f", cells, last.Correlation, last.EnergyFraction)
	}

	d.section("§7.3 — QoS negotiation on a 10 Mb/s network", whyNegotiation)
	net := qos.NewNetwork(1.25e6)
	table(d, "program", "P", "B (KB/s)", "tbi (s)", "mean (KB/s)")
	for _, name := range []string{"sor", "2dfft", "hist"} {
		spec, _ := kernels.Lookup(name)
		off, err := net.Negotiate(spec.QoS(spec.Params), 32)
		if err != nil {
			return nil, err
		}
		row(d, "%s | %d | %.1f | %.4f | %.1f", off.Program, off.P, off.BurstBandwidth/1000, off.BurstInterval, off.MeanBandwidth/1000)
	}

	renderAblations(d, measure(r))
	return d.claims, nil
}

// claim is one shape or direction the paper states, tested on the runs:
// render states it under its block and prints ✓ or ✗, and
// BenchmarkPaperFigures fails at paper scale when it does not hold.
// Each is written so that a missing value (NaN) does not hold.
type claim struct {
	text  string
	holds bool
}

func says(holds bool, format string, args ...any) claim {
	return claim{fmt.Sprintf(format, args...), holds}
}

// Grade bounds on measured/paper: ✓ within the close pair, ~ within the
// near pair, ✗ beyond.
const closeLo, closeHi, nearLo, nearHi = 0.8, 1.25, 0.5, 2.0

// within reports whether lo ≤ x ≤ hi; NaN is within nothing.
func within(x, lo, hi float64) bool { return x >= lo && x <= hi }

// graded is one paper value beside its measurement.
type graded struct {
	key, verb, grade string // key is program/field, as in reasons
	paper, ours      float64
}

// grades sets every paper value beside its measurement, once.
func grades(r runs) []graded {
	var out []graded
	for _, name := range core.ProgramNames() {
		ours := measured(r.report(name))
		for _, f := range fields {
			p, ok := paper[name][f.name]
			if !ok {
				continue
			}
			g := graded{name + "/" + f.name, f.verb, "✗", p, ours[f.name]}
			switch ratio := g.ours / p; {
			case f.name == "modes" && g.ours != p: // ✗: modes grade only on equality
			case within(ratio, closeLo, closeHi):
				g.grade = "✓"
			case within(ratio, nearLo, nearHi):
				g.grade = "~"
			}
			out = append(out, g)
		}
	}
	return out
}

// doc is the document being rendered and the claims it has printed.
type doc struct {
	io.Writer
	claims []claim
}

// section starts a Markdown section: its heading, its prose, then the
// claims it tests.
func (d *doc) section(title, why string, cs ...claim) {
	fmt.Fprintf(d, "\n## %s\n\n%s\n", title, why)
	if len(cs) > 0 {
		fmt.Fprintln(d)
	}
	for _, c := range cs {
		fmt.Fprintf(d, "- %s %s\n", map[bool]string{true: "✓", false: "✗"}[c.holds], c.text)
	}
	d.claims = append(d.claims, cs...)
}

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

// orDash formats v, or "-" when it is missing: zero, as a spectrum
// without a spike reports its fundamental, or NaN, as its period.
func orDash(verb string, v float64) string {
	if v == 0 || math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf(verb, v)
}

// period is the burst interval of a fundamental, NaN without one, so
// that a claim reading it does not hold.
func period(hz float64) float64 {
	if hz > 0 {
		return 1 / hz
	}
	return math.NaN()
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
