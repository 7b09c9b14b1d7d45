// Paper-figure regeneration benchmarks: one benchmark per table and
// figure of the evaluation (figures 1–11 plus the §6.2 text numbers and
// the §7.2/§7.3 models). Each benchmark drives a full paper-scale run of
// the relevant programs on the simulated testbed (cached across
// benchmarks within the process), times the analysis that produces the
// figure, and prints the same rows the paper reports next to the paper's
// values. EXPERIMENTS.md records a snapshot of this output.
//
// Run with: go test -bench=. -benchmem
package fxnet_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"fxnet"
	"fxnet/internal/core"
	"fxnet/internal/ethernet"
	"fxnet/internal/farm"
	"fxnet/internal/kernels"
	"fxnet/internal/qos"
)

// paperValues holds the published numbers for side-by-side printing.
// Values are (aggregate, connection); NaN-like -1 marks "not reported".
type paperRow struct{ agg, conn float64 }

var (
	paperAvgKBps = map[string]paperRow{
		"sor": {5.6, 0.9}, "2dfft": {754.8, 63.2}, "t2dfft": {607.1, 148.6},
		"seq": {58.3, -1}, "hist": {29.6, -1}, "airshed": {32.7, 2.7},
	}
	paperAvgPkt = map[string]paperRow{
		"sor": {473, 577}, "2dfft": {969, 977}, "t2dfft": {912, 1442},
		"seq": {75, -1}, "hist": {499, -1}, "airshed": {899, 889},
	}
	paperMaxIAms = map[string]paperRow{
		"sor": {1728.7, 1797.0}, "2dfft": {1395.8, 2732.6}, "t2dfft": {1301.6, 4216.7},
		"seq": {218.6, -1}, "hist": {449.9, -1}, "airshed": {23448.6, 37018.5},
	}
)

// kernelNames in paper order.
var kernelNames = []string{"sor", "2dfft", "t2dfft", "seq", "hist"}

// benchFarm shares runs across all benchmarks in the process: full
// paper-scale runs are expensive (seconds each), so identical
// configurations are memoized in memory. Set FXNET_BENCH_CACHE to a
// directory to persist runs on disk across `go test -bench` invocations.
var benchFarm = func() *farm.Farm {
	f, err := farm.Open(nil, os.Getenv("FXNET_BENCH_CACHE"), farm.Options{Memoize: true})
	if err != nil {
		panic(err)
	}
	return f
}()

var (
	cacheMu    sync.Mutex
	printOnces = map[string]*sync.Once{}
)

// farmRun executes one configuration through the shared farm.
func farmRun(b *testing.B, cfg fxnet.RunConfig) (*core.Result, *core.Report) {
	b.Helper()
	res, rep, err := benchFarm.Run(cfg)
	if err != nil {
		b.Fatalf("%s: %v", cfg.Program, err)
	}
	return res, rep
}

// farmBatch executes several configurations concurrently, returning
// results in submission order.
func farmBatch(b *testing.B, jobs []farm.Job) []farm.JobResult {
	b.Helper()
	results := benchFarm.RunBatch(jobs)
	for _, jr := range results {
		if jr.Err != nil {
			b.Fatalf("%s: %v", jr.Job.Label, jr.Err)
		}
	}
	return results
}

func cachedRun(b *testing.B, program string) (*core.Result, *core.Report) {
	b.Helper()
	return farmRun(b, fxnet.RunConfig{Program: program, Seed: 42})
}

// printOnce emits a figure's table a single time per process.
func printOnce(key string, f func()) {
	cacheMu.Lock()
	once, ok := printOnces[key]
	if !ok {
		once = &sync.Once{}
		printOnces[key] = once
	}
	cacheMu.Unlock()
	once.Do(f)
}

func pv(v float64) string {
	if v < 0 {
		return "    -"
	}
	return fmt.Sprintf("%8.1f", v)
}

// BenchmarkFigure2KernelTable regenerates figure 2: the kernel ↔ pattern
// table, read from c of each kernel's registered [l(), b(), c] law
// (internal/kernels' TestKernelTrafficMatchesCompiler holds c to the
// compiler and the wire).
func BenchmarkFigure2KernelTable(b *testing.B) {
	pats := make([]fxnet.Pattern, len(kernelNames))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, name := range kernelNames {
			spec, _ := kernels.Lookup(name)
			pats[j] = spec.QoS(spec.Params).Pattern
		}
	}
	printOnce("fig2", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 2: Fx kernels and their communication patterns ===")
		fmt.Fprintf(os.Stdout, "%-10s %-12s\n", "Kernel", "Pattern")
		for j, name := range kernelNames {
			fmt.Fprintf(os.Stdout, "%-10s %-12v\n", name, pats[j])
		}
	})
}

// BenchmarkFigure1Patterns regenerates figure 1: for each pattern, the set
// of host pairs that actually carry data on the wire at P=4 matches the
// pattern definition.
func BenchmarkFigure1Patterns(b *testing.B) {
	type patcheck struct {
		name  string
		pairs int // expected data-bearing ordered pairs at P=4
	}
	// neighbor: 6 (chain), all-to-all: 12, partition: 4 (2 senders × 2
	// receivers), broadcast: 3, tree: up(2+1)+bcast(3) distinct = 3+3.
	checks := []patcheck{{"sor", 6}, {"2dfft", 12}, {"t2dfft", 4}, {"seq", 3}, {"hist", 6}}
	var lines []string
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for _, c := range checks {
			res, _ := farmRun(b, fxnet.RunConfig{
				Program: c.name, Seed: 7, Params: fxnet.KernelParams{N: 16, Iters: 2},
				KeepaliveInterval: -1, // disable daemon traffic: count program pairs only
			})
			// Count ordered pairs carrying TCP *data* (ACK-only reverse
			// traffic and handshakes excluded).
			pairs := map[[2]int]bool{}
			for _, p := range res.Trace.Packets {
				if p.Flags&ethernet.FlagData != 0 && p.Proto == ethernet.ProtoTCP {
					pairs[[2]int{int(p.Src), int(p.Dst)}] = true
				}
			}
			if len(pairs) != c.pairs {
				b.Fatalf("%s: %d data-bearing pairs, want %d", c.name, len(pairs), c.pairs)
			}
			lines = append(lines, fmt.Sprintf("%-10s data-bearing connections: %2d", c.name, len(pairs)))
		}
	}
	printOnce("fig1", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 1: communication patterns (data-bearing pairs at P=4) ===")
		for _, l := range lines {
			fmt.Fprintln(os.Stdout, l)
		}
	})
}

// BenchmarkTableFigure3PacketSizes regenerates figure 3: packet size
// statistics for the five kernels, aggregate and representative
// connection.
func BenchmarkTableFigure3PacketSizes(b *testing.B) {
	reports := make(map[string]*core.Report)
	for _, name := range kernelNames {
		_, reports[name] = cachedRun(b, name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range kernelNames {
			res, _ := cachedRun(b, name)
			_ = fxnet.SizeStats(res.Trace)
		}
	}
	b.StopTimer()
	printOnce("fig3", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 3: packet size statistics (bytes) ===")
		fmt.Fprintf(os.Stdout, "%-8s %28s | %28s | %s\n", "Program", "aggregate min/max/avg/sd", "connection min/max/avg/sd", "paper avg (agg, conn)")
		for _, name := range kernelNames {
			r := reports[name]
			agg := fmt.Sprintf("%4.0f/%4.0f/%4.0f/%4.0f", r.AggSize.Min, r.AggSize.Max, r.AggSize.Mean, r.AggSize.SD)
			conn := "           -"
			if r.ConnSize.N > 0 {
				conn = fmt.Sprintf("%4.0f/%4.0f/%4.0f/%4.0f", r.ConnSize.Min, r.ConnSize.Max, r.ConnSize.Mean, r.ConnSize.SD)
			}
			pr := paperAvgPkt[name]
			fmt.Fprintf(os.Stdout, "%-8s %28s | %28s | %s,%s\n", name, agg, conn, pv(pr.agg), pv(pr.conn))
		}
		fmt.Fprintln(os.Stdout, "trimodality (SOR/2DFFT/HIST per paper):")
		for _, name := range kernelNames {
			fmt.Fprintf(os.Stdout, "  %-8s size modes: %d\n", name, reports[name].SizeModes)
		}
	})
}

// BenchmarkTableFigure4Interarrival regenerates figure 4: interarrival
// time statistics (ms).
func BenchmarkTableFigure4Interarrival(b *testing.B) {
	reports := make(map[string]*core.Report)
	for _, name := range kernelNames {
		_, reports[name] = cachedRun(b, name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range kernelNames {
			res, _ := cachedRun(b, name)
			_ = fxnet.InterarrivalStats(res.Trace)
		}
	}
	b.StopTimer()
	printOnce("fig4", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 4: packet interarrival time statistics (ms) ===")
		fmt.Fprintf(os.Stdout, "%-8s %34s | %34s | %s\n", "Program", "aggregate min/max/avg/sd", "connection min/max/avg/sd", "paper max (agg, conn)")
		for _, name := range kernelNames {
			r := reports[name]
			agg := fmt.Sprintf("%5.1f/%7.1f/%6.1f/%6.1f", r.AggInterarrival.Min, r.AggInterarrival.Max, r.AggInterarrival.Mean, r.AggInterarrival.SD)
			conn := "                 -"
			if r.ConnInterarrival.N > 0 {
				conn = fmt.Sprintf("%5.1f/%7.1f/%6.1f/%6.1f", r.ConnInterarrival.Min, r.ConnInterarrival.Max, r.ConnInterarrival.Mean, r.ConnInterarrival.SD)
			}
			pr := paperMaxIAms[name]
			fmt.Fprintf(os.Stdout, "%-8s %34s | %34s | %s,%s\n", name, agg, conn, pv(pr.agg), pv(pr.conn))
		}
	})
}

// BenchmarkTableFigure5AvgBandwidth regenerates figure 5: average
// bandwidth in KB/s, aggregate and per-connection.
func BenchmarkTableFigure5AvgBandwidth(b *testing.B) {
	reports := make(map[string]*core.Report)
	for _, name := range kernelNames {
		_, reports[name] = cachedRun(b, name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range kernelNames {
			res, _ := cachedRun(b, name)
			_ = fxnet.AverageBandwidthKBps(res.Trace)
		}
	}
	b.StopTimer()
	// Shape assertion: the paper's ordering 2DFFT > T2DFFT ≫ SEQ > HIST > SOR.
	g := func(n string) float64 { return reports[n].AggKBps }
	if !(g("2dfft") > g("t2dfft") && g("t2dfft") > g("seq") && g("seq") > g("sor") && g("hist") > g("sor")) {
		b.Fatalf("bandwidth ordering broken: %v %v %v %v %v",
			g("sor"), g("2dfft"), g("t2dfft"), g("seq"), g("hist"))
	}
	printOnce("fig5", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 5: average bandwidth (KB/s) ===")
		fmt.Fprintf(os.Stdout, "%-8s %10s %10s | %10s %10s\n", "Program", "agg", "conn", "paper agg", "paper conn")
		for _, name := range kernelNames {
			r := reports[name]
			pr := paperAvgKBps[name]
			fmt.Fprintf(os.Stdout, "%-8s %10.1f %10.1f | %s %s\n", name, r.AggKBps, r.ConnKBps, pv(pr.agg), pv(pr.conn))
		}
	})
	for _, name := range kernelNames {
		b.ReportMetric(reports[name].AggKBps, name+"-KB/s")
	}
}

// BenchmarkFigure6InstantaneousBandwidth regenerates figure 6: the 10 ms
// sliding-window instantaneous bandwidth over a 10-second span for each
// kernel (aggregate and representative connection).
func BenchmarkFigure6InstantaneousBandwidth(b *testing.B) {
	for _, name := range kernelNames {
		cachedRun(b, name)
	}
	b.ResetTimer()
	var lines []string
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for _, name := range kernelNames {
			res, rep := cachedRun(b, name)
			span := res.Trace.Between(0, 10_000_000_000) // first 10 s
			series, _ := fxnet.BinnedBandwidth(span, fxnet.PaperWindow)
			peak, idle := 0.0, 0
			for _, v := range series {
				if v > peak {
					peak = v
				}
				if v == 0 {
					idle++
				}
			}
			idleFrac := float64(idle) / float64(len(series))
			lines = append(lines, fmt.Sprintf("%-8s 10s-span samples=%5d peak=%7.1fKB/s idle-frac=%4.2f mean=%7.1fKB/s",
				name, len(series), peak, idleFrac, rep.AggKBps))
			// The figure's signature: bursts reach above the mean with
			// idle time between. For the near-saturating FFTs the paper's
			// own ratio is only ≈1.8 (754 KB/s mean, ≈1300 KB/s bursts).
			if peak < 1.5*rep.AggKBps {
				b.Fatalf("%s: peak %0.f not ≫ mean %0.f; burstiness lost", name, peak, rep.AggKBps)
			}
		}
	}
	b.StopTimer()
	printOnce("fig6", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 6: instantaneous bandwidth, 10 ms window, 10 s span ===")
		for _, l := range lines {
			fmt.Fprintln(os.Stdout, l)
		}
	})
}

// BenchmarkFigure7PowerSpectra regenerates figure 7: the power spectrum of
// the windowed bandwidth for each kernel, printing the dominant spikes.
func BenchmarkFigure7PowerSpectra(b *testing.B) {
	reports := make(map[string]*core.Report)
	for _, name := range kernelNames {
		_, reports[name] = cachedRun(b, name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range kernelNames {
			res, _ := cachedRun(b, name)
			_ = fxnet.SpectrumOf(res.Trace, fxnet.PaperWindow)
		}
	}
	b.StopTimer()
	printOnce("fig7", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 7: power spectra of instantaneous bandwidth ===")
		paperNote := map[string]string{
			"sor":    "paper: conn fundamental ≈5 Hz; agg less clear",
			"2dfft":  "paper: fundamental 0.5 Hz, declining harmonics",
			"t2dfft": "paper: least clear periodicity (fragments)",
			"seq":    "paper: 4 Hz harmonic most important",
			"hist":   "paper: 5 Hz fundamental, declining harmonics",
		}
		for _, name := range kernelNames {
			rep := reports[name]
			agg := rep.AggSpectrum.Peaks(3, 2*rep.AggSpectrum.DF)
			fmt.Fprintf(os.Stdout, "%-8s agg spikes:", name)
			for _, p := range agg {
				fmt.Fprintf(os.Stdout, " %.3gHz", p.Freq)
			}
			if rep.ConnSpectrum != nil {
				conn := rep.ConnSpectrum.Peaks(3, 2*rep.ConnSpectrum.DF)
				fmt.Fprintf(os.Stdout, "  conn spikes:")
				for _, p := range conn {
					fmt.Fprintf(os.Stdout, " %.3gHz", p.Freq)
				}
			}
			fmt.Fprintf(os.Stdout, "   [%s]\n", paperNote[name])
		}
	})
}

// BenchmarkTableFigure8AirshedPacketSizes regenerates figure 8.
func BenchmarkTableFigure8AirshedPacketSizes(b *testing.B) {
	_, rep := cachedRun(b, "airshed")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := cachedRun(b, "airshed")
		_ = fxnet.SizeStats(res.Trace)
	}
	b.StopTimer()
	printOnce("fig8", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 8: AIRSHED packet size statistics (bytes) ===")
		fmt.Fprintf(os.Stdout, "aggregate  min=%4.0f max=%4.0f avg=%4.0f sd=%4.0f (paper avg 899)\n",
			rep.AggSize.Min, rep.AggSize.Max, rep.AggSize.Mean, rep.AggSize.SD)
		fmt.Fprintf(os.Stdout, "connection min=%4.0f max=%4.0f avg=%4.0f sd=%4.0f (paper avg 889)\n",
			rep.ConnSize.Min, rep.ConnSize.Max, rep.ConnSize.Mean, rep.ConnSize.SD)
	})
	// Paper: connection distribution ≈ aggregate distribution.
	if d := rep.AggSize.Mean - rep.ConnSize.Mean; d > 200 || d < -200 {
		b.Fatalf("connection mean %0.f far from aggregate %0.f", rep.ConnSize.Mean, rep.AggSize.Mean)
	}
}

// BenchmarkTableFigure9AirshedInterarrival regenerates figure 9.
func BenchmarkTableFigure9AirshedInterarrival(b *testing.B) {
	_, rep := cachedRun(b, "airshed")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := cachedRun(b, "airshed")
		_ = fxnet.InterarrivalStats(res.Trace)
	}
	b.StopTimer()
	printOnce("fig9", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 9: AIRSHED interarrival statistics (ms) ===")
		fmt.Fprintf(os.Stdout, "aggregate  min=%.1f max=%.1f avg=%.1f sd=%.1f (paper max 23448.6 avg 26.8)\n",
			rep.AggInterarrival.Min, rep.AggInterarrival.Max, rep.AggInterarrival.Mean, rep.AggInterarrival.SD)
		fmt.Fprintf(os.Stdout, "connection min=%.1f max=%.1f avg=%.1f sd=%.1f (paper max 37018.5 avg 317.4)\n",
			rep.ConnInterarrival.Min, rep.ConnInterarrival.Max, rep.ConnInterarrival.Mean, rep.ConnInterarrival.SD)
	})
	// Paper: AIRSHED interarrivals an order of magnitude above kernels'.
	_, sorRep := cachedRun(b, "sor")
	if rep.AggInterarrival.Max <= sorRep.AggInterarrival.Max {
		b.Fatal("AIRSHED max interarrival not above kernel scale")
	}
}

// BenchmarkTextAirshedAvgBandwidth regenerates the §6.2 text numbers:
// aggregate 32.7 KB/s, connection 2.7 KB/s.
func BenchmarkTextAirshedAvgBandwidth(b *testing.B) {
	_, rep := cachedRun(b, "airshed")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := cachedRun(b, "airshed")
		_ = fxnet.AverageBandwidthKBps(res.Trace)
	}
	b.StopTimer()
	printOnce("sec62", func() {
		fmt.Fprintln(os.Stdout, "\n=== §6.2 text: AIRSHED average bandwidth ===")
		fmt.Fprintf(os.Stdout, "aggregate %.1f KB/s (paper 32.7), connection %.1f KB/s (paper 2.7), ratio %.1f (paper 12.1)\n",
			rep.AggKBps, rep.ConnKBps, rep.AggKBps/rep.ConnKBps)
	})
	// Shape: the aggregate/connection ratio ≈ the 12 connections.
	ratio := rep.AggKBps / rep.ConnKBps
	if ratio < 8 || ratio > 16 {
		b.Fatalf("agg/conn ratio = %v, want ≈12", ratio)
	}
	b.ReportMetric(rep.AggKBps, "agg-KB/s")
	b.ReportMetric(rep.ConnKBps, "conn-KB/s")
}

// BenchmarkFigure10AirshedBandwidth regenerates figure 10: AIRSHED
// instantaneous bandwidth over 500 s and 60 s spans.
func BenchmarkFigure10AirshedBandwidth(b *testing.B) {
	res, _ := cachedRun(b, "airshed")
	b.ResetTimer()
	var n500, n60 int
	var peak float64
	for i := 0; i < b.N; i++ {
		span500 := res.Trace.Between(1000_000_000_000, 1500_000_000_000)
		span60 := res.Trace.Between(1000_000_000_000, 1060_000_000_000)
		s500, _ := fxnet.BinnedBandwidth(span500, fxnet.PaperWindow)
		s60, _ := fxnet.BinnedBandwidth(span60, fxnet.PaperWindow)
		n500, n60 = len(s500), len(s60)
		peak = 0
		for _, v := range s500 {
			if v > peak {
				peak = v
			}
		}
	}
	b.StopTimer()
	// The figure shows bursts reaching ≈1.2 MB/s (wire saturation) with
	// long quiet periods.
	if peak < 800 {
		b.Fatalf("peak = %v KB/s; transpose bursts should near wire speed", peak)
	}
	printOnce("fig10", func() {
		fmt.Fprintf(os.Stdout, "\n=== Figure 10: AIRSHED instantaneous bandwidth ===\n")
		fmt.Fprintf(os.Stdout, "500s span (t=1000..1500s): %d samples, peak %.0f KB/s (paper peaks ≈1200 KB/s)\n", n500, peak)
		fmt.Fprintf(os.Stdout, "60s span (t=1000..1060s): %d samples\n", n60)
	})
}

// BenchmarkFigure11AirshedSpectra regenerates figure 11: AIRSHED power
// spectra at three zoom levels, with the three time-scale peaks (hour ≈
// 0.015 Hz, chemistry phase ≈ 0.2 Hz, transport phase ≈ 5 Hz bands).
func BenchmarkFigure11AirshedSpectra(b *testing.B) {
	res, _ := cachedRun(b, "airshed")
	b.ResetTimer()
	var spec *fxnet.Spectrum
	for i := 0; i < b.N; i++ {
		spec = fxnet.SpectrumOf(res.Trace, fxnet.PaperWindow)
	}
	b.StopTimer()

	// Hour-scale fundamental: strongest peak below 0.05 Hz.
	hourBand := strongestIn(spec, 0.005, 0.05)
	stepBand := strongestIn(spec, 0.1, 0.5)
	fastBand := strongestIn(spec, 2, 8)
	printOnce("fig11", func() {
		fmt.Fprintln(os.Stdout, "\n=== Figure 11: AIRSHED power spectrum peaks ===")
		fmt.Fprintf(os.Stdout, "hour scale:      %.4f Hz (paper ≈0.015 Hz, 66 s)\n", hourBand)
		fmt.Fprintf(os.Stdout, "chemistry scale: %.3f Hz (paper ≈0.2 Hz, 5 s)\n", stepBand)
		fmt.Fprintf(os.Stdout, "transport scale: %.2f Hz (paper ≈5 Hz, 200 ms)\n", fastBand)
		for _, zoom := range []float64{0.1, 1, 20} {
			freq, _ := spec.Slice(zoom)
			fmt.Fprintf(os.Stdout, "0–%g Hz view: %d bins\n", zoom, len(freq))
		}
	})
	if hourBand < 0.008 || hourBand > 0.03 {
		b.Fatalf("hour-scale peak at %v Hz, want ≈0.015", hourBand)
	}
	b.ReportMetric(hourBand, "hour-Hz")
	b.ReportMetric(stepBand, "chem-Hz")
	b.ReportMetric(fastBand, "transport-Hz")
}

// strongestIn returns the frequency of the strongest spectral bin in
// [lo, hi) Hz.
func strongestIn(s *fxnet.Spectrum, lo, hi float64) float64 {
	best, bestP := 0.0, -1.0
	for i, f := range s.Freq {
		if f < lo || f >= hi {
			continue
		}
		if s.Power[i] > bestP {
			best, bestP = f, s.Power[i]
		}
	}
	return best
}

// BenchmarkSection72SpectralModel regenerates §7.2: truncated Fourier
// models of the 2DFFT bandwidth converge to the measurement as spikes are
// added.
func BenchmarkSection72SpectralModel(b *testing.B) {
	_, rep := cachedRun(b, "2dfft")
	ks := []int{1, 2, 4, 8, 16, 32}
	b.ResetTimer()
	errs := make([]float64, len(ks))
	for i := 0; i < b.N; i++ {
		for j, k := range ks {
			_, met := fxnet.FitModel(rep.AggSeries, rep.SeriesDT, k, 0.05)
			errs[j] = met.NRMSE
		}
	}
	b.StopTimer()
	for j := 1; j < len(ks); j++ {
		if errs[j] > errs[j-1]+1e-9 {
			b.Fatalf("NRMSE not monotone in k: %v", errs)
		}
	}
	printOnce("sec72", func() {
		fmt.Fprintln(os.Stdout, "\n=== §7.2: spectral model convergence (2DFFT aggregate) ===")
		for j, k := range ks {
			fmt.Fprintf(os.Stdout, "k=%2d spikes: NRMSE=%.4f\n", ks[j], errs[j])
			_ = k
		}
	})
	b.ReportMetric(errs[len(errs)-1], "NRMSE-32spikes")
}

// BenchmarkSection73QoSNegotiation regenerates §7.3: the network returns
// the processor count minimizing the burst interval for each kernel's
// [l(), b(), c] characterization.
func BenchmarkSection73QoSNegotiation(b *testing.B) {
	// Characterizations derived from the kernel calibrations (N=512).
	progs := []fxnet.QoSProgram{
		{
			Name:    "sor",
			Local:   func(P int) float64 { return 512.0 * 510 / float64(P) / 38500 },
			Burst:   func(P int) float64 { return 512 * 4 },
			Pattern: fxnet.Neighbor,
		},
		{
			Name:    "2dfft",
			Local:   func(P int) float64 { return 2 * 512 * 23040 / float64(P) / 8.4e6 },
			Burst:   func(P int) float64 { return 512 * 512 * 8 / float64(P*P) },
			Pattern: fxnet.AllToAll,
		},
		{
			Name:    "hist",
			Local:   func(P int) float64 { return 512.0 * 512 / float64(P) / 364000 },
			Burst:   func(P int) float64 { return 256 * 8 },
			Pattern: fxnet.Tree,
		},
	}
	var offers []qos.Offer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offers = offers[:0]
		net := fxnet.NewQoSNetwork(1.25e6)
		for _, p := range progs {
			off, err := net.Negotiate(p, 32)
			if err != nil {
				b.Fatal(err)
			}
			offers = append(offers, off)
		}
	}
	b.StopTimer()
	printOnce("sec73", func() {
		fmt.Fprintln(os.Stdout, "\n=== §7.3: QoS negotiation (10 Mb/s network returns P) ===")
		fmt.Fprintf(os.Stdout, "%-8s %4s %12s %12s %14s\n", "Program", "P", "B (KB/s)", "tbi (s)", "mean (KB/s)")
		for _, off := range offers {
			fmt.Fprintf(os.Stdout, "%-8s %4d %12.1f %12.4f %14.1f\n",
				off.Program, off.P, off.BurstBandwidth/1000, off.BurstInterval, off.MeanBandwidth/1000)
		}
	})
}

// BenchmarkSection73ModelValidation closes the §7.3 loop end to end: the
// [l(), b(), c] characterization predicts the 2DFFT's burst interval
// tbi(P) = l(P) + comm(P); running the program on the simulated testbed
// at each P must measure a burst period within 25% of the prediction.
// This is the validation the paper leaves as future work.
func BenchmarkSection73ModelValidation(b *testing.B) {
	const n = 512
	spec, _ := kernels.Lookup("2dfft")
	law := spec.QoS(fxnet.KernelParams{N: n})

	type row struct {
		P                   int
		predicted, measured float64
	}
	ps := []int{2, 4, 8}
	jobs := make([]farm.Job, len(ps))
	for j, P := range ps {
		jobs[j] = farm.Job{Label: fmt.Sprintf("2dfft/P%d", P), Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 31, P: P,
			Params:         fxnet.KernelParams{N: n, Iters: 20},
			DisableDesched: true,
		}}
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for j, jr := range farmBatch(b, jobs) {
			P := ps[j]
			spec := fxnet.SpectrumOf(jr.Result.Trace, fxnet.PaperWindow)
			measured := 1 / spec.DominantFreq()
			totalBytes := float64(P*(P-1)) * law.Burst(P) * 1.06 // + header overhead
			predicted := law.Local(P) + totalBytes/qos.EffectiveCapacityBps
			rows = append(rows, row{P: P, predicted: predicted, measured: measured})
		}
	}
	for _, r := range rows {
		ratio := r.measured / r.predicted
		if ratio < 0.75 || ratio > 1.33 {
			b.Fatalf("P=%d: measured period %.2fs vs predicted %.2fs (ratio %.2f)",
				r.P, r.measured, r.predicted, ratio)
		}
	}
	printOnce("sec73v", func() {
		fmt.Fprintln(os.Stdout, "\n=== §7.3 validation: predicted vs measured burst interval (2DFFT) ===")
		fmt.Fprintf(os.Stdout, "%4s %14s %14s\n", "P", "predicted (s)", "measured (s)")
		for _, r := range rows {
			fmt.Fprintf(os.Stdout, "%4d %14.2f %14.2f\n", r.P, r.predicted, r.measured)
		}
	})
}
