// Ablation benchmarks: the design-choice experiments DESIGN.md calls out.
// They exercise the reproduction's moving parts at reduced scale and
// assert the directional effects the paper attributes to each mechanism.
package fxnet_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"fxnet"
	"fxnet/internal/analysis"
	"fxnet/internal/core"
	"fxnet/internal/ethernet"
	"fxnet/internal/farm"
	"fxnet/internal/trace"
)

// fullFraction reports the fraction of TCP data packets at the maximal
// 1518-byte frame size.
func fullFraction(tr *fxnet.Trace) float64 {
	var data, full int
	for _, p := range tr.Packets {
		if p.Proto != ethernet.ProtoTCP || p.Flags&ethernet.FlagData == 0 {
			continue
		}
		data++
		if p.Size == 1518 {
			full++
		}
	}
	if data == 0 {
		return 0
	}
	return float64(full) / float64(data)
}

// BenchmarkAblationFragmentPacking isolates PVM's fragment-list handling:
// the same T2DFFT workload sent with the copy-loop discipline produces
// mostly maximal segments; the fragment discipline (the real T2DFFT)
// produces almost none — the paper's explanation for T2DFFT's smeared
// packet sizes.
func BenchmarkAblationFragmentPacking(b *testing.B) {
	jobs := []farm.Job{
		{Label: "t2dfft/frag", Config: fxnet.RunConfig{
			Program: "t2dfft", Seed: 9, Params: fxnet.KernelParams{N: 128, Iters: 5},
		}},
		{Label: "t2dfft/copy", Config: fxnet.RunConfig{
			Program: "t2dfft", Seed: 9, Params: fxnet.KernelParams{N: 128, Iters: 5},
			ForceCopyLoop: true,
		}},
	}
	var fragFrac, copyFrac float64
	for i := 0; i < b.N; i++ {
		pair := farmBatch(b, jobs)
		fragFrac = fullFraction(pair[0].Result.Trace)
		copyFrac = fullFraction(pair[1].Result.Trace)
	}
	if copyFrac < fragFrac+0.3 {
		b.Fatalf("copy-loop full-segment fraction %.2f not ≫ fragment %.2f", copyFrac, fragFrac)
	}
	printOnce("abl-frag", func() {
		fmt.Fprintln(os.Stdout, "\n=== Ablation: PVM fragment-list vs copy-loop packing (T2DFFT) ===")
		fmt.Fprintf(os.Stdout, "fragment packing:  %5.1f%% of data packets are maximal 1518 B\n", 100*fragFrac)
		fmt.Fprintf(os.Stdout, "copy-loop packing: %5.1f%% of data packets are maximal 1518 B\n", 100*copyFrac)
	})
	b.ReportMetric(fragFrac, "frag-full-frac")
	b.ReportMetric(copyFrac, "copy-full-frac")
}

// BenchmarkAblationBandwidthPeriodicity demonstrates the paper's
// "bandwidth dependent periodicity": the same 2DFFT on a faster network
// has a shorter burst interval, so its spectral fundamental moves up.
func BenchmarkAblationBandwidthPeriodicity(b *testing.B) {
	rates := []float64{10e6, 40e6}
	jobs := make([]farm.Job, len(rates))
	for j, rate := range rates {
		jobs[j] = farm.Job{Label: fmt.Sprintf("2dfft/%gMbps", rate/1e6), Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 5, BitRate: rate,
			Params:         fxnet.KernelParams{Iters: 30},
			DisableDesched: true,
		}}
	}
	funds := make([]float64, len(rates))
	for i := 0; i < b.N; i++ {
		for j, jr := range farmBatch(b, jobs) {
			funds[j] = fxnet.SpectrumOf(jr.Result.Trace, fxnet.PaperWindow).DominantFreq()
		}
	}
	if funds[1] <= funds[0] {
		b.Fatalf("fundamental did not rise with bandwidth: %v Hz → %v Hz", funds[0], funds[1])
	}
	printOnce("abl-bw", func() {
		fmt.Fprintln(os.Stdout, "\n=== Ablation: bandwidth-dependent periodicity (2DFFT) ===")
		for j, rate := range rates {
			fmt.Fprintf(os.Stdout, "%4.0f Mb/s: fundamental %.3f Hz (period %.2f s)\n",
				rate/1e6, funds[j], 1/funds[j])
		}
	})
	b.ReportMetric(funds[0], "10Mb-Hz")
	b.ReportMetric(funds[1], "40Mb-Hz")
}

// BenchmarkAblationWindowSize verifies the analysis choice of the 10 ms
// averaging interval: the dominant spectral spike of a periodic program
// is stable across 5/10/20 ms bins.
func BenchmarkAblationWindowSize(b *testing.B) {
	res, _ := cachedRun(b, "seq")
	bins := []fxnet.Duration{5_000_000, 10_000_000, 20_000_000}
	doms := make([]float64, len(bins))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, bin := range bins {
			doms[j] = fxnet.SpectrumOf(res.Trace, bin).DominantFreq()
		}
	}
	b.StopTimer()
	for j := 1; j < len(doms); j++ {
		ratio := doms[j] / doms[0]
		if ratio < 0.8 || ratio > 1.25 {
			b.Fatalf("dominant frequency unstable across windows: %v", doms)
		}
	}
	printOnce("abl-win", func() {
		fmt.Fprintln(os.Stdout, "\n=== Ablation: averaging-window size (SEQ) ===")
		for j, bin := range bins {
			fmt.Fprintf(os.Stdout, "%2d ms bins: dominant %.3f Hz\n", int(bin)/1_000_000, doms[j])
		}
	})
}

// BenchmarkAblationPatternScaling regenerates the §7.1 connection-count
// comparison: neighbor uses Θ(P) connections while all-to-all uses
// Θ(P²), both by the analytic formula and on the measured wire.
func BenchmarkAblationPatternScaling(b *testing.B) {
	type row struct {
		P                  int
		sorPairs, fftPairs int
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, P := range []int{2, 4, 8} {
			countPairs := func(program string) int {
				res, _ := farmRun(b, fxnet.RunConfig{
					Program: program, Seed: 3, P: P,
					Params:            fxnet.KernelParams{N: 16, Iters: 2},
					KeepaliveInterval: -1,
				})
				pairs := map[[2]int]bool{}
				for _, p := range res.Trace.Packets {
					if p.Flags&ethernet.FlagData != 0 && p.Proto == ethernet.ProtoTCP {
						pairs[[2]int{int(p.Src), int(p.Dst)}] = true
					}
				}
				return len(pairs)
			}
			r := row{P: P, sorPairs: countPairs("sor"), fftPairs: countPairs("2dfft")}
			if r.sorPairs != 2*(P-1) {
				b.Fatalf("P=%d: sor pairs %d, want %d", P, r.sorPairs, 2*(P-1))
			}
			if r.fftPairs != P*(P-1) {
				b.Fatalf("P=%d: 2dfft pairs %d, want %d", P, r.fftPairs, P*(P-1))
			}
			rows = append(rows, r)
		}
	}
	printOnce("abl-scale", func() {
		fmt.Fprintln(os.Stdout, "\n=== Ablation: §7.1 pattern connection scaling ===")
		fmt.Fprintf(os.Stdout, "%4s %14s %14s %14s\n", "P", "neighbor 2(P-1)", "all-to-all P(P-1)", "partition P²/4")
		for _, r := range rows {
			fmt.Fprintf(os.Stdout, "%4d %14d %14d %14d\n", r.P, r.sorPairs, r.fftPairs,
				fxnet.Partition.Connections(r.P))
		}
	})
}

// BenchmarkAblationDescheduling isolates the OS-deschedule injection: the
// paper observed that a descheduled processor stalls the synchronous
// all-to-all and merges bursts. Without injection the 2DFFT's burst
// period is regular; with heavy injection the maximum interarrival grows.
func BenchmarkAblationDescheduling(b *testing.B) {
	noisyCost, err := core.CalibratedCost("2dfft")
	if err != nil {
		b.Fatal(err)
	}
	noisyCost.DeschedProb = 0.5 // every other phase stalls
	noisyCost.DeschedMean = 400_000_000
	jobs := []farm.Job{
		{Label: "2dfft/clean", Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 11, Params: fxnet.KernelParams{Iters: 20},
			DisableDesched: true,
		}},
		{Label: "2dfft/noisy", Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 11, Params: fxnet.KernelParams{Iters: 20},
			Cost: &noisyCost,
		}},
	}
	var cleanMax, noisyMax float64
	for i := 0; i < b.N; i++ {
		pair := farmBatch(b, jobs)
		cleanMax = fxnet.InterarrivalStats(pair[0].Result.Trace).Max
		noisyMax = fxnet.InterarrivalStats(pair[1].Result.Trace).Max
	}
	if noisyMax < cleanMax+100 {
		b.Fatalf("descheduling did not lengthen stalls: %v vs %v ms", noisyMax, cleanMax)
	}
	printOnce("abl-desched", func() {
		fmt.Fprintln(os.Stdout, "\n=== Ablation: OS descheduling injection (2DFFT) ===")
		fmt.Fprintf(os.Stdout, "without injection: max interarrival %7.1f ms\n", cleanMax)
		fmt.Fprintf(os.Stdout, "with injection:    max interarrival %7.1f ms\n", noisyMax)
	})
}

// BenchmarkAblationCorrelatedConnections quantifies the paper's
// "correlated traffic along many connections": the synchronized
// all-to-all's per-connection bandwidths correlate strongly.
func BenchmarkAblationCorrelatedConnections(b *testing.B) {
	var coin float64
	for i := 0; i < b.N; i++ {
		_, rep := cachedRun(b, "2dfft")
		coin = rep.Coincidence
	}
	if coin < 0.9 {
		b.Fatalf("phase coincidence = %v, want ≈1 (paper: in-phase connections)", coin)
	}
	printOnce("abl-corr", func() {
		fmt.Fprintln(os.Stdout, "\n=== Correlated connections (2DFFT) ===")
		fmt.Fprintf(os.Stdout, "mean fraction of the 12 connections active per phase: %.3f\n", coin)
	})
	b.ReportMetric(coin, "phase-coincidence")
}

// BenchmarkAblationConstantBurstSizes verifies the paper's "constant
// burst sizes": per-phase burst byte totals have small relative spread.
func BenchmarkAblationConstantBurstSizes(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		// A deschedule-free run: OS stalls merge bursts, which is noise
		// for this particular claim.
		res, _ := farmRun(b, fxnet.RunConfig{
			Program: "2dfft", Seed: 13, Params: fxnet.KernelParams{Iters: 30},
			DisableDesched: true, KeepaliveInterval: -1,
		})
		bs := burstsOf(res.Trace)
		rel = bs.sd / bs.mean
	}
	if rel > 0.05 {
		b.Fatalf("burst size spread sd/mean = %v, want small", rel)
	}
	printOnce("abl-burst", func() {
		fmt.Fprintln(os.Stdout, "\n=== Constant burst sizes (2DFFT) ===")
		fmt.Fprintf(os.Stdout, "burst byte total: sd/mean = %.5f\n", rel)
	})
}

type burstSummary struct{ mean, sd float64 }

// burstsOf segments a trace at 100 ms idle gaps and summarizes burst byte
// totals.
func burstsOf(tr *fxnet.Trace) burstSummary {
	const gap = fxnet.Duration(100_000_000)
	var sizes []float64
	cur := 0.0
	last := tr.Packets[0].Time
	for i, p := range tr.Packets {
		if i > 0 && p.Time.Sub(last) >= gap {
			sizes = append(sizes, cur)
			cur = 0
		}
		cur += float64(p.Size)
		last = p.Time
	}
	sizes = append(sizes, cur)
	// Drop first and last (partial phases), then drop noise "bursts":
	// the 200 ms delayed-ACK timer can fire after a phase ends, leaving a
	// lone 58-byte ACK that segments as its own burst.
	if len(sizes) > 2 {
		sizes = sizes[1 : len(sizes)-1]
	}
	maxSize := 0.0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	kept := sizes[:0]
	for _, s := range sizes {
		if s >= 0.01*maxSize {
			kept = append(kept, s)
		}
	}
	sizes = kept
	var sum float64
	for _, s := range sizes {
		sum += s
	}
	mean := sum / float64(len(sizes))
	var ss float64
	for _, s := range sizes {
		d := s - mean
		ss += d * d
	}
	return burstSummary{mean: mean, sd: math.Sqrt(ss / float64(len(sizes)))}
}

// BenchmarkAblationFrameLoss injects FCS corruption on the shared
// segment: TCP's retransmissions recover the computation (the kernel
// still completes and the result is unchanged), but the clean spectral
// structure degrades — timeouts smear the burst periods, which is why
// the paper could only observe crisp periodicity on a healthy LAN.
func BenchmarkAblationFrameLoss(b *testing.B) {
	jobs := []farm.Job{
		{Label: "2dfft/clean", Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 17, Params: fxnet.KernelParams{Iters: 20},
			DisableDesched: true,
		}},
		{Label: "2dfft/lossy", Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 17, Params: fxnet.KernelParams{Iters: 20},
			DisableDesched: true, FrameLossProb: 0.02,
		}},
	}
	var cleanPeak, lossyPeak, lossyBW, cleanBW float64
	for i := 0; i < b.N; i++ {
		pair := farmBatch(b, jobs)
		clean, lossy := pair[0].Result, pair[1].Result
		cs := fxnet.SpectrumOf(clean.Trace, fxnet.PaperWindow)
		ls := fxnet.SpectrumOf(lossy.Trace, fxnet.PaperWindow)
		// Sharpness: fraction of non-DC power in the strongest spike.
		cleanPeak = cs.Peaks(1, 0)[0].Power / cs.TotalPower()
		lossyPeak = ls.Peaks(1, 0)[0].Power / ls.TotalPower()
		cleanBW = fxnet.AverageBandwidthKBps(clean.Trace)
		lossyBW = fxnet.AverageBandwidthKBps(lossy.Trace)
	}
	if lossyPeak >= cleanPeak {
		b.Fatalf("loss did not blur the spectrum: %v vs %v", lossyPeak, cleanPeak)
	}
	if lossyBW >= cleanBW {
		b.Fatalf("loss did not slow the program: %v vs %v KB/s", lossyBW, cleanBW)
	}
	printOnce("abl-loss", func() {
		fmt.Fprintln(os.Stdout, "\n=== Ablation: 2% frame loss (2DFFT, TCP retransmission) ===")
		fmt.Fprintf(os.Stdout, "clean: dominant-spike power share %.3f, %7.1f KB/s\n", cleanPeak, cleanBW)
		fmt.Fprintf(os.Stdout, "lossy: dominant-spike power share %.3f, %7.1f KB/s\n", lossyPeak, lossyBW)
	})
}

// BenchmarkAblationSwitchedEthernet replaces the shared collision domain
// with a full-duplex store-and-forward switch at the same 10 Mb/s link
// rate. The all-to-all's transfers then proceed in parallel instead of
// serializing on one wire, so the communication phase shortens and the
// burst fundamental rises — quantifying how much of the measured shape
// came from the shared medium itself.
func BenchmarkAblationSwitchedEthernet(b *testing.B) {
	jobs := []farm.Job{
		{Label: "2dfft/shared", Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 19, Params: fxnet.KernelParams{Iters: 25},
			DisableDesched: true,
		}},
		{Label: "2dfft/switched", Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 19, Params: fxnet.KernelParams{Iters: 25},
			DisableDesched: true, Switched: true,
		}},
	}
	var sharedHz, switchedHz, sharedBW, switchedBW float64
	for i := 0; i < b.N; i++ {
		pair := farmBatch(b, jobs)
		shared, switched := pair[0].Result, pair[1].Result
		sharedHz = fxnet.SpectrumOf(shared.Trace, fxnet.PaperWindow).DominantFreq()
		switchedHz = fxnet.SpectrumOf(switched.Trace, fxnet.PaperWindow).DominantFreq()
		sharedBW = fxnet.AverageBandwidthKBps(shared.Trace)
		switchedBW = fxnet.AverageBandwidthKBps(switched.Trace)
	}
	if switchedHz <= sharedHz {
		b.Fatalf("switching did not shorten the burst period: %v vs %v Hz", switchedHz, sharedHz)
	}
	if switchedBW <= sharedBW {
		b.Fatalf("switching did not raise throughput: %v vs %v KB/s", switchedBW, sharedBW)
	}
	printOnce("abl-switch", func() {
		fmt.Fprintln(os.Stdout, "\n=== Ablation: shared CSMA/CD vs switched full duplex (2DFFT, 10 Mb/s links) ===")
		fmt.Fprintf(os.Stdout, "shared:   fundamental %.3f Hz, %7.1f KB/s aggregate\n", sharedHz, sharedBW)
		fmt.Fprintf(os.Stdout, "switched: fundamental %.3f Hz, %7.1f KB/s aggregate\n", switchedHz, switchedBW)
	})
	b.ReportMetric(sharedHz, "shared-Hz")
	b.ReportMetric(switchedHz, "switched-Hz")
}

// BenchmarkAblationNagle turns on sender-side coalescing (PVM's actual
// sockets set TCP_NODELAY). Nagle merges SEQ's per-element broadcast
// messages into maximal segments, erasing the small-packet signature the
// paper measured — evidence the measured shape depends on the transport
// configuration, not just the program.
func BenchmarkAblationNagle(b *testing.B) {
	jobs := []farm.Job{
		{Label: "seq/nodelay", Config: fxnet.RunConfig{
			Program: "seq", Seed: 23, Params: fxnet.KernelParams{N: 24, Iters: 2},
		}},
		{Label: "seq/nagle", Config: fxnet.RunConfig{
			Program: "seq", Seed: 23, Params: fxnet.KernelParams{N: 24, Iters: 2},
			Nagle: true,
		}},
	}
	var offAvg, onAvg float64
	var offPkts, onPkts int
	for i := 0; i < b.N; i++ {
		pair := farmBatch(b, jobs)
		off, on := pair[0].Result, pair[1].Result
		offAvg = fxnet.SizeStats(off.Trace).Mean
		onAvg = fxnet.SizeStats(on.Trace).Mean
		offPkts = off.Trace.Len()
		onPkts = on.Trace.Len()
	}
	if onPkts >= offPkts {
		b.Fatalf("Nagle did not reduce packet count: %d vs %d", onPkts, offPkts)
	}
	if onAvg <= offAvg {
		b.Fatalf("Nagle did not grow packets: %.0f vs %.0f bytes", onAvg, offAvg)
	}
	printOnce("abl-nagle", func() {
		fmt.Fprintln(os.Stdout, "\n=== Ablation: TCP_NODELAY (measured) vs Nagle (SEQ) ===")
		fmt.Fprintf(os.Stdout, "no delay: %6d packets, avg %5.0f bytes\n", offPkts, offAvg)
		fmt.Fprintf(os.Stdout, "nagle:    %6d packets, avg %5.0f bytes\n", onPkts, onAvg)
	})
}

// BenchmarkAblationLinkFlap injects a 2 s link outage into the 2DFFT's
// shared segment mid-run. TCP retransmission carries the computation
// across the hole, but the traffic shape records it: the spectrum of the
// outage-plus-recovery window loses the burst fundamental that dominates
// the healthy run, and once the link heals the fundamental returns —
// the §6.1 before/after methodology applied to a scripted fault.
func BenchmarkAblationLinkFlap(b *testing.B) {
	const script = "12s:linkdown host1,14s:linkup host1"
	jobs := []farm.Job{
		{Label: "2dfft/clean", Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 41, Params: fxnet.KernelParams{Iters: 25},
			DisableDesched: true, KeepaliveInterval: -1,
		}},
		{Label: "2dfft/flap", Config: fxnet.RunConfig{
			Program: "2dfft", Seed: 41, Params: fxnet.KernelParams{Iters: 25},
			DisableDesched: true, KeepaliveInterval: -1,
			FaultScript: script,
		}},
	}
	var preHz, duringHz, postHz float64
	var cleanMaxIA, flapMaxIA float64
	for i := 0; i < b.N; i++ {
		pair := farmBatch(b, jobs)
		clean, flap := pair[0].Result, pair[1].Result
		if len(flap.Trace.Marks) == 0 {
			b.Fatal("flap run carries no fault marks")
		}
		start := flap.Trace.Marks[0].Time // the linkdown
		// Bracket the outage plus the retransmission recovery that
		// follows it; the healthy rhythm resumes beyond that.
		disturbed := start.Add(fxnet.Duration(7_000_000_000))
		pre, during, post := analysis.PreDuringPost(flap.Trace, start, disturbed, fxnet.PaperWindow)
		preHz = pre.Spectrum.DominantFreq()
		duringHz = during.Spectrum.DominantFreq()
		postHz = post.Spectrum.DominantFreq()
		cleanMaxIA = fxnet.InterarrivalStats(clean.Trace).Max
		flapMaxIA = fxnet.InterarrivalStats(flap.Trace).Max
	}
	if dev := math.Abs(duringHz-preHz) / preHz; dev < 0.15 {
		b.Fatalf("outage did not shift the fundamental: pre %.3f Hz, during %.3f Hz", preHz, duringHz)
	}
	if dev := math.Abs(postHz-preHz) / preHz; dev > 0.10 {
		b.Fatalf("fundamental did not recover after heal: pre %.3f Hz, post %.3f Hz", preHz, postHz)
	}
	if flapMaxIA < 2000 || cleanMaxIA > 1500 {
		b.Fatalf("outage hole not visible in interarrivals: flap max %v ms, clean max %v ms", flapMaxIA, cleanMaxIA)
	}
	printOnce("abl-flap", func() {
		fmt.Fprintln(os.Stdout, "\n=== Ablation: 2 s link outage mid-run (2DFFT, TCP recovery) ===")
		fmt.Fprintf(os.Stdout, "pre-fault:        fundamental %.3f Hz\n", preHz)
		fmt.Fprintf(os.Stdout, "outage+recovery:  fundamental %.3f Hz\n", duringHz)
		fmt.Fprintf(os.Stdout, "post-heal:        fundamental %.3f Hz\n", postHz)
		fmt.Fprintf(os.Stdout, "max interarrival: %.0f ms (clean %.0f ms)\n", flapMaxIA, cleanMaxIA)
	})
	b.ReportMetric(preHz, "pre-Hz")
	b.ReportMetric(duringHz, "during-Hz")
	b.ReportMetric(postHz, "post-Hz")
}

// BenchmarkComparisonMediaVsParallel quantifies the paper's thesis that
// compiler-parallelized traffic is fundamentally unlike media traffic:
//
//   - media (VBR video): intrinsic frame-rate periodicity, *variable*
//     burst sizes;
//   - parallel (2DFFT): *constant* burst sizes, period set by the
//     application and the network;
//   - classic self-similar LAN traffic (heavy-tailed on/off): high Hurst
//     exponent, which the periodic parallel traffic lacks.
func BenchmarkComparisonMediaVsParallel(b *testing.B) {
	var parCoV, vidCoV, parH, onoffH float64
	for i := 0; i < b.N; i++ {
		res, _ := farmRun(b, fxnet.RunConfig{
			Program: "2dfft", Seed: 29, Params: fxnet.KernelParams{Iters: 30},
			DisableDesched: true, KeepaliveInterval: -1,
		})
		parCoV = burstCoV(res.Trace, 100_000_000)
		series, _ := fxnet.BinnedBandwidth(res.Trace, fxnet.PaperWindow)
		parH = fxnet.Hurst(series)

		video := fxnet.GenerateVBR(fxnet.VBRConfig{}, 60_000_000_000, 29, 0, 1)
		vidCoV = burstCoV(video, 5_000_000)

		onoff := fxnet.GenerateOnOff(fxnet.OnOffConfig{}, 200_000_000_000, 29)
		oseries, _ := fxnet.BinnedBandwidth(onoff, 100_000_000)
		onoffH = fxnet.Hurst(oseries)
	}
	if parCoV >= 0.1 {
		b.Fatalf("parallel burst-size CoV = %v, want ≈0 (constant bursts)", parCoV)
	}
	if vidCoV <= 3*parCoV {
		b.Fatalf("video burst CoV %v not ≫ parallel %v", vidCoV, parCoV)
	}
	if onoffH <= parH {
		b.Fatalf("on/off Hurst %v not above parallel %v", onoffH, parH)
	}
	printOnce("cmp-media", func() {
		fmt.Fprintln(os.Stdout, "\n=== Comparison: parallel vs media vs self-similar traffic ===")
		fmt.Fprintf(os.Stdout, "2DFFT:        burst-size CoV %.4f  Hurst %.2f  (constant bursts, periodic)\n", parCoV, parH)
		fmt.Fprintf(os.Stdout, "VBR video:    burst-size CoV %.4f            (fixed frame rate, variable bursts)\n", vidCoV)
		fmt.Fprintf(os.Stdout, "Pareto on/off:                     Hurst %.2f  (self-similar)\n", onoffH)
	})
	b.ReportMetric(parCoV, "parallel-CoV")
	b.ReportMetric(vidCoV, "video-CoV")
}

// burstCoV segments the trace at idle gaps and returns the coefficient of
// variation of burst byte totals (noise bursts below 1% of max dropped).
func burstCoV(tr *fxnet.Trace, gap fxnet.Duration) float64 {
	bs := burstsOf2(tr, gap)
	return bs
}

func burstsOf2(tr *fxnet.Trace, gap fxnet.Duration) float64 {
	if tr.Len() == 0 {
		return 0
	}
	var sizes []float64
	cur := 0.0
	last := tr.Packets[0].Time
	for i, p := range tr.Packets {
		if i > 0 && p.Time.Sub(last) >= gap {
			sizes = append(sizes, cur)
			cur = 0
		}
		cur += float64(p.Size)
		last = p.Time
	}
	sizes = append(sizes, cur)
	if len(sizes) > 2 {
		sizes = sizes[1 : len(sizes)-1]
	}
	maxSize := 0.0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	kept := sizes[:0]
	for _, s := range sizes {
		if s >= 0.01*maxSize {
			kept = append(kept, s)
		}
	}
	return fxnet.CoV(kept)
}

// BenchmarkQoSGuaranteeUnderLoad demonstrates the QoS mechanism the
// paper's introduction motivates: on a switched network, an ~900 KB/s
// best-effort video flow aimed at one of the program's hosts stretches
// the 2DFFT's burst interval; giving the program's connections a strict-
// priority guarantee restores it to within a few percent of the unloaded
// run.
func BenchmarkQoSGuaranteeUnderLoad(b *testing.B) {
	period := func(cross float64, guarantee bool) float64 {
		res, _ := farmRun(b, fxnet.RunConfig{
			Program: "2dfft", Seed: 37, Params: fxnet.KernelParams{Iters: 20},
			DisableDesched: true, Switched: true,
			CrossTrafficKBps: cross, GuaranteeProgram: guarantee,
		})
		// Program traffic only: connections among the 4 worker hosts.
		prog := res.Trace.Filter(func(p trace.Packet) bool {
			return p.Src < 4 && p.Dst < 4
		})
		f := fxnet.SpectrumOf(prog, fxnet.PaperWindow).DominantFreq()
		return 1 / f
	}
	var clean, loaded, guaranteed float64
	for i := 0; i < b.N; i++ {
		clean = period(0, false)
		loaded = period(900, false)
		guaranteed = period(900, true)
	}
	if loaded < clean*1.05 {
		b.Fatalf("cross traffic did not slow the program: %.2fs vs %.2fs", loaded, clean)
	}
	if guaranteed > clean*1.1 {
		b.Fatalf("guarantee did not protect the program: %.2fs vs clean %.2fs", guaranteed, clean)
	}
	printOnce("qos-load", func() {
		fmt.Fprintln(os.Stdout, "\n=== QoS guarantee under load (2DFFT on switched 10 Mb/s, 900 KB/s video cross-traffic) ===")
		fmt.Fprintf(os.Stdout, "unloaded:              burst interval %.2f s\n", clean)
		fmt.Fprintf(os.Stdout, "best-effort + video:   burst interval %.2f s\n", loaded)
		fmt.Fprintf(os.Stdout, "guaranteed + video:    burst interval %.2f s\n", guaranteed)
	})
	b.ReportMetric(clean, "clean-s")
	b.ReportMetric(loaded, "loaded-s")
	b.ReportMetric(guaranteed, "guaranteed-s")
}
