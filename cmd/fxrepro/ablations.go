package main

import (
	"fmt"
	"math"

	"fxnet/internal/analysis"
	"fxnet/internal/core"
	"fxnet/internal/dsp"
	"fxnet/internal/ethernet"
	"fxnet/internal/farm"
	"fxnet/internal/fx"
	"fxnet/internal/kernels"
	"fxnet/internal/media"
	"fxnet/internal/qos"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

// The ablations are contrasts between runs that differ in one
// mechanism. Each prints in its own block under the claims it tests.

// scaleP are the processor counts of the §7.1 pair counts and the §7.3
// validation; flapScript is the link-flap ablation's fault, and
// flapSpan brackets the outage plus the retransmission recovery that
// follows it.
var scaleP = [3]int{2, 4, 8}

const (
	flapScript = "12s:linkdown host1,14s:linkup host1"
	flapSpan   = 7 * sim.Second
)

// qosRuns are the QoS-under-load ablation's runs: best-effort video
// cross-traffic (KB/s) and whether the program's connections hold a
// strict-priority guarantee.
var qosRuns = [3]struct {
	name      string
	crossKBps float64
	guarantee bool
}{{"unloaded", 0, false}, {"best-effort + video", 900, false}, {"guaranteed + video", 900, true}}

// ablationJobs are the ablation runs at paper scale; collect shrinks
// them with the figure runs. A job is a trace job when its block reads
// packets, or when it is a faulted shared-segment run, so that
// BenchmarkPaperFigures holds its capture to the exclusion oracle as it
// does every shared-segment trace; every other quantity is a Report
// field.
func ablationJobs() []farm.Job {
	var jobs []farm.Job
	add := func(label string, packets bool, cfg core.RunConfig) {
		jobs = append(jobs, farm.Job{Label: label, Config: cfg, Stream: !packets})
	}
	fft := func(seed int64, iters int) core.RunConfig {
		return core.RunConfig{Program: "2dfft", Seed: seed, Params: kernels.Params{Iters: iters}, DisableDesched: true}
	}

	frag := core.RunConfig{Program: "t2dfft", Seed: 9, Params: kernels.Params{N: 128, Iters: 5}}
	add("frag/fragment", true, frag)
	frag.ForceCopyLoop = true
	add("frag/copy", true, frag)

	bw := fft(5, 30)
	add("bw/10", false, bw)
	bw.BitRate = 40e6
	add("bw/40", true, bw)

	for _, P := range scaleP {
		for _, prog := range []string{"sor", "2dfft"} {
			add(fmt.Sprintf("pairs/%s/%d", prog, P), true, core.RunConfig{
				Program: prog, Seed: 3, P: P, Params: kernels.Params{N: 16, Iters: 2}, KeepaliveInterval: -1,
			})
		}
	}

	desched := fft(11, 20)
	add("desched/off", false, desched)
	// Every other phase stalls. (2dfft is a known program: no error.)
	noisy, _ := core.CalibratedCost("2dfft")
	noisy.DeschedProb, noisy.DeschedMean = 0.5, 400*sim.Millisecond
	desched.DisableDesched, desched.Cost = false, &noisy
	add("desched/on", true, desched)

	// Deschedule-free: OS stalls merge bursts, which is noise for the
	// constant-burst claim.
	bursts := fft(13, 30)
	bursts.KeepaliveInterval = -1
	add("bursts", true, bursts)

	loss := fft(17, 20)
	add("loss/clean", false, loss)
	loss.FrameLossProb = 0.02
	add("loss/lossy", true, loss)

	sw := fft(19, 25)
	add("switch/shared", false, sw)
	sw.Switched = true
	add("switch/switched", false, sw)

	nagle := core.RunConfig{Program: "seq", Seed: 23, Params: kernels.Params{N: 24, Iters: 2}}
	add("nagle/off", false, nagle)
	nagle.Nagle = true
	add("nagle/on", true, nagle)

	flap := fft(41, 25)
	flap.KeepaliveInterval = -1
	add("flap/clean", false, flap)
	flap.FaultScript = flapScript
	add("flap/flap", true, flap)

	par := fft(29, 30)
	par.KeepaliveInterval = -1
	add("media", true, par)

	for _, q := range qosRuns {
		cfg := fft(37, 20)
		cfg.Switched, cfg.CrossTrafficKBps, cfg.GuaranteeProgram = true, q.crossKBps, q.guarantee
		add("qos/"+q.name, true, cfg)
	}

	for _, P := range scaleP {
		cfg := fft(31, 20)
		cfg.P, cfg.Params.N = P, 512
		add(fmt.Sprintf("sec73/%d", P), false, cfg)
	}
	return jobs
}

// ablations are the values the ablation blocks print. Pairs and triples
// are in the order of the runs their block contrasts.
type ablations struct {
	fullFrac     [2]float64    // fragment, copy loop: share of TCP data packets at 1518 B
	bwHz         [2]float64    // 2DFFT fundamental at 10 and 40 Mb/s
	windowHz     [3]float64    // SEQ's dominant spike in 5, 10 and 20 ms bins
	pairs        [3][2]int     // data-bearing pairs at scaleP: SOR (neighbor), 2DFFT (all-to-all)
	deschedMaxIA [2]float64    // 2DFFT max interarrival without, with stall injection (ms)
	coincidence  float64       // 2DFFT: mean fraction of connections active per phase
	burstCoV     float64       // 2DFFT burst byte totals, sd/mean
	lossShare    [2]float64    // clean, lossy: dominant spike's share of non-DC power
	lossKBps     [2]float64    // clean, lossy aggregate
	switchHz     [2]float64    // shared, switched fundamental
	switchKBps   [2]float64    // shared, switched aggregate
	naglePkts    [2]int        // TCP_NODELAY, Nagle
	nagleAvg     [2]float64    // average packet size (bytes)
	flapHz       [3]float64    // pre-fault, outage+recovery, post-heal fundamental
	flapMaxIA    [2]float64    // clean, flap max interarrival (ms)
	parCoV, parH float64       // 2DFFT burst CoV and Hurst exponent
	vidCoV       float64       // VBR video burst CoV
	onoffH       float64       // Pareto on/off Hurst exponent
	qosPeriod    [3]float64    // burst interval (s) for each of qosRuns
	sec73        [3][2]float64 // predicted, measured burst interval (s) at scaleP
}

// measure reads the ablation blocks' values off the runs.
func measure(r runs) ablations {
	var a ablations
	packets := func(label string) *trace.Trace { return r[label].Result.Trace }
	dominant := func(label string) float64 { return r.report(label).AggSpectrum.DominantFreq() }

	a.fullFrac = [2]float64{fullFraction(packets("frag/fragment")), fullFraction(packets("frag/copy"))}
	a.bwHz = [2]float64{dominant("bw/10"), dominant("bw/40")}
	for j, bin := range []sim.Duration{5 * sim.Millisecond, 10 * sim.Millisecond, 20 * sim.Millisecond} {
		a.windowHz[j] = analysis.Spectrum(packets("seq"), bin).DominantFreq()
	}
	for i, P := range scaleP {
		a.pairs[i] = [2]int{len(tcpData(packets(fmt.Sprintf("pairs/sor/%d", P))).Pairs()), len(tcpData(packets(fmt.Sprintf("pairs/2dfft/%d", P))).Pairs())}
	}
	a.deschedMaxIA = [2]float64{r.report("desched/off").AggInterarrival.Max, r.report("desched/on").AggInterarrival.Max}
	a.coincidence = r.report("2dfft").Coincidence
	a.burstCoV = burstCoV(packets("bursts"), 100*sim.Millisecond)
	for i, label := range []string{"loss/clean", "loss/lossy"} {
		a.lossShare[i] = spikeShare(r.report(label).AggSpectrum)
		a.lossKBps[i] = r.report(label).AggKBps
	}
	for i, label := range []string{"switch/shared", "switch/switched"} {
		a.switchHz[i], a.switchKBps[i] = dominant(label), r.report(label).AggKBps
	}
	for i, label := range []string{"nagle/off", "nagle/on"} {
		a.naglePkts[i], a.nagleAvg[i] = r.report(label).AggSize.N, r.report(label).AggSize.Mean
	}
	if flap := packets("flap/flap"); len(flap.Marks) > 0 {
		start := flap.Marks[0].Time // the linkdown
		pre, during, post := analysis.PreDuringPost(flap, start, start.Add(flapSpan), analysis.PaperWindow)
		a.flapHz = [3]float64{pre.Spectrum.DominantFreq(), during.Spectrum.DominantFreq(), post.Spectrum.DominantFreq()}
	}
	a.flapMaxIA = [2]float64{r.report("flap/clean").AggInterarrival.Max, r.report("flap/flap").AggInterarrival.Max}

	a.parCoV = burstCoV(packets("media"), 100*sim.Millisecond)
	a.parH = stats.HurstAggVar(r.report("media").AggSeries, nil)
	a.vidCoV = burstCoV(media.GenerateVBR(media.VBRConfig{}, 60*sim.Second, 29, 0, 1), 5*sim.Millisecond)
	onoff, _ := analysis.BinnedBandwidth(media.GenerateOnOff(media.OnOffConfig{}, 200*sim.Second, 29), 100*sim.Millisecond)
	a.onoffH = stats.HurstAggVar(onoff, nil)

	for i, q := range qosRuns {
		// Program traffic only: connections among the four worker hosts.
		prog := packets("qos/" + q.name).Filter(func(p trace.Packet) bool { return p.Src < 4 && p.Dst < 4 })
		a.qosPeriod[i] = period(analysis.Spectrum(prog, analysis.PaperWindow).DominantFreq())
	}

	spec, _ := kernels.Lookup("2dfft")
	for i, P := range scaleP {
		jr := r[fmt.Sprintf("sec73/%d", P)]
		law := spec.QoS(jr.Job.Config.Params)
		wire := float64(P*(P-1)) * law.Burst(P) * 1.06 // + header overhead
		a.sec73[i] = [2]float64{law.Local(P) + wire/qos.EffectiveCapacityBps, period(jr.Report.AggSpectrum.DominantFreq())}
	}
	return a
}

// renderAblations writes one block per ablation, under the claims it
// tests.
func renderAblations(d *doc, a ablations) {
	hz := func(v float64) string { return orDash("%.3f", v) }
	d.section("Ablation — bandwidth-dependent periodicity (2DFFT)", whyPeriodicity,
		says(a.bwHz[1] > a.bwHz[0], "the fundamental rises with the bit rate: %s → %s Hz", hz(a.bwHz[0]), hz(a.bwHz[1])))
	table(d, "segment", "fundamental (Hz)", "period (s)")
	for i, rate := range []string{"10 Mb/s", "40 Mb/s"} {
		row(d, "%s | %s | %s", rate, hz(a.bwHz[i]), orDash("%.2f", period(a.bwHz[i])))
	}

	d.section("Ablation — correlated connections (2DFFT)", whyCorrelated,
		says(a.coincidence >= 0.9, "%.3f of connections active per phase, ≥ 0.9", a.coincidence))
	table(d, "run", "mean fraction of connections active per phase")
	row(d, "figure run | %.3f", a.coincidence)

	d.section("Ablation — constant burst sizes (2DFFT)", whyConstantBursts,
		says(a.burstCoV <= 0.05, "burst byte total sd/mean %.5f ≤ 0.05", a.burstCoV))
	table(d, "run", "burst byte total sd/mean")
	row(d, "deschedule-free | %.5f", a.burstCoV)

	d.section("Ablation — parallel vs media vs self-similar traffic", whyMedia,
		says(a.parCoV < 0.1, "2DFFT burst-size CoV %.5f < 0.1", a.parCoV),
		says(a.vidCoV > 3*a.parCoV, "VBR video burst-size CoV %.4f > 3 × 2DFFT's", a.vidCoV),
		says(a.onoffH > a.parH, "Pareto on/off Hurst %.2f above 2DFFT's %.2f", a.onoffH, a.parH))
	table(d, "traffic", "burst-size CoV", "Hurst")
	row(d, "2DFFT | %.5f | %.2f", a.parCoV, a.parH)
	row(d, "VBR video | %.4f | -", a.vidCoV)
	row(d, "Pareto on/off | - | %.2f", a.onoffH)

	d.section("Ablation — PVM fragment-list vs copy-loop packing (T2DFFT)", whyFragments,
		says(a.fullFrac[1] >= a.fullFrac[0]+0.3, "the copy loop fills %.1f %% of data packets, ≥ 30 points above the fragment list's %.1f %%",
			100*a.fullFrac[1], 100*a.fullFrac[0]))
	table(d, "packing", "data packets at 1518 B")
	row(d, "fragment list | %.1f %%", 100*a.fullFrac[0])
	row(d, "copy loop | %.1f %%", 100*a.fullFrac[1])

	d.section("Ablation — shared CSMA/CD vs switched full duplex (2DFFT, 10 Mb/s links)", whySwitched,
		says(a.switchHz[1] > a.switchHz[0], "switching raises the fundamental: %s → %s Hz", hz(a.switchHz[0]), hz(a.switchHz[1])),
		says(a.switchKBps[1] > a.switchKBps[0], "switching raises the aggregate: %.1f → %.1f KB/s", a.switchKBps[0], a.switchKBps[1]))
	table(d, "medium", "fundamental (Hz)", "aggregate (KB/s)")
	for i, medium := range []string{"shared", "switched"} {
		row(d, "%s | %s | %.1f", medium, hz(a.switchHz[i]), a.switchKBps[i])
	}

	d.section("Ablation — averaging-window size (SEQ)", whyWindow,
		says(within(a.windowHz[1]/a.windowHz[0], 0.8, 1.25) && within(a.windowHz[2]/a.windowHz[0], 0.8, 1.25),
			"the dominant spike at 10 and 20 ms bins is within 0.8–1.25 × its 5 ms value"))
	table(d, "bin", "dominant spike (Hz)")
	for i, bin := range []string{"5 ms", "10 ms", "20 ms"} {
		row(d, "%s | %s", bin, hz(a.windowHz[i]))
	}

	var scaling, validation []claim
	for i, P := range scaleP {
		got := a.pairs[i]
		scaling = append(scaling, says(got == [2]int{2 * (P - 1), P * (P - 1)},
			"P=%d: %d neighbor pairs = 2(P−1), %d all-to-all pairs = P(P−1)", P, got[0], got[1]))
		validation = append(validation, says(within(a.sec73[i][1]/a.sec73[i][0], 0.75, 1.33),
			"P=%d: measured %s s within 0.75–1.33 × predicted %.2f s", P, orDash("%.2f", a.sec73[i][1]), a.sec73[i][0]))
	}
	d.section("Ablation — §7.1 pattern connection scaling", whyScaling, scaling...)
	table(d, "P", "neighbor (SOR)", "all-to-all (2DFFT)", "partition P²/4")
	for i, P := range scaleP {
		row(d, "%d | %d | %d | %d", P, a.pairs[i][0], a.pairs[i][1], fx.Partition.Connections(P))
	}

	d.section("Ablation — OS descheduling injection (2DFFT)", whyDesched,
		says(a.deschedMaxIA[1] >= a.deschedMaxIA[0]+100, "stall injection lengthens the max gap by ≥ 100 ms: %.1f → %.1f ms",
			a.deschedMaxIA[0], a.deschedMaxIA[1]))
	table(d, "stall injection", "max interarrival (ms)")
	row(d, "off | %.1f", a.deschedMaxIA[0])
	row(d, "on | %.1f", a.deschedMaxIA[1])

	d.section("Ablation — 2 % frame loss (2DFFT, TCP retransmission)", whyLoss,
		says(a.lossShare[1] < a.lossShare[0], "loss lowers the dominant spike's power share: %.3f → %.3f", a.lossShare[0], a.lossShare[1]),
		says(a.lossKBps[1] < a.lossKBps[0], "loss lowers the aggregate: %.1f → %.1f KB/s", a.lossKBps[0], a.lossKBps[1]))
	table(d, "segment", "dominant-spike power share", "aggregate (KB/s)")
	for i, seg := range []string{"clean", "lossy"} {
		row(d, "%s | %.3f | %.1f", seg, a.lossShare[i], a.lossKBps[i])
	}

	d.section("Ablation — TCP_NODELAY (measured) vs Nagle (SEQ)", whyNagle,
		says(a.naglePkts[1] < a.naglePkts[0], "Nagle sends fewer packets: %d → %d", a.naglePkts[0], a.naglePkts[1]),
		says(a.nagleAvg[1] > a.nagleAvg[0], "Nagle sends larger packets: %.0f → %.0f B", a.nagleAvg[0], a.nagleAvg[1]))
	table(d, "sender", "packets", "avg size (bytes)")
	for i, s := range []string{"no delay", "Nagle"} {
		row(d, "%s | %d | %.0f", s, a.naglePkts[i], a.nagleAvg[i])
	}

	pre, during, post := a.flapHz[0], a.flapHz[1], a.flapHz[2]
	d.section("Ablation — 2 s link outage mid-run (2DFFT, TCP recovery)", whyFlap,
		says(pre != 0 && math.Abs(during-pre)/pre >= 0.15, "the outage moves the fundamental by ≥ 15 %%: %s → %s Hz", hz(pre), hz(during)),
		says(pre != 0 && math.Abs(post-pre)/pre <= 0.10, "it returns within 10 %% after the heal: %s Hz", hz(post)),
		says(a.flapMaxIA[1] >= 2000 && a.flapMaxIA[0] <= 1500, "max interarrival %.0f ms ≥ 2000 ms with the outage, %.0f ms ≤ 1500 ms without",
			a.flapMaxIA[1], a.flapMaxIA[0]))
	table(d, "window", "fundamental (Hz)")
	for i, win := range []string{"pre-fault", "outage + recovery", "post-heal"} {
		row(d, "%s | %s", win, hz(a.flapHz[i]))
	}

	d.section("Ablation — §7.3 validation: predicted vs measured burst interval (2DFFT)", whyValidation, validation...)
	table(d, "P", "predicted (s)", "measured (s)")
	for i, P := range scaleP {
		row(d, "%d | %.2f | %s", P, a.sec73[i][0], orDash("%.2f", a.sec73[i][1]))
	}

	clean, loaded, guaranteed := a.qosPeriod[0], a.qosPeriod[1], a.qosPeriod[2]
	d.section("Ablation — QoS guarantee under load (2DFFT, switched 10 Mb/s, 900 KB/s video)", whyQoS,
		says(loaded >= clean*1.05 && guaranteed <= clean*1.1, "video stretches the interval ≥ 5 %% (%s s) and the guarantee holds it within 10 %% (%s s) of unloaded (%s s)",
			orDash("%.2f", loaded), orDash("%.2f", guaranteed), orDash("%.2f", clean)))
	table(d, "program traffic", "burst interval (s)")
	for i, q := range qosRuns {
		row(d, "%s | %s", q.name, orDash("%.2f", a.qosPeriod[i]))
	}
}

// tcpData keeps a trace's TCP data packets.
func tcpData(tr *trace.Trace) *trace.Trace {
	return tr.Filter(func(p trace.Packet) bool { return p.Proto == ethernet.ProtoTCP && p.Flags&ethernet.FlagData != 0 })
}

// fullFraction is the share of TCP data packets at the maximal 1518-byte
// frame size.
func fullFraction(tr *trace.Trace) float64 {
	data := tcpData(tr)
	return float64(data.Filter(func(p trace.Packet) bool { return p.Size == 1518 }).Len()) / float64(data.Len())
}

// spikeShare is the strongest spike's share of s's non-DC power, the
// spectrum's sharpness; 0 without a spike.
func spikeShare(s *dsp.Spectrum) float64 {
	p := s.Peaks(1, 0)
	if len(p) == 0 {
		return 0
	}
	return p[0].Power / s.TotalPower()
}

// burstCoV segments a trace at idle gaps of at least gap and returns
// the sd/mean of the burst byte totals. The first and last bursts
// (partial phases) are dropped, and so are noise bursts under 1 % of the
// largest: the 200 ms delayed-ACK timer can fire after a phase ends,
// leaving a lone 58-byte ACK that segments as its own burst.
func burstCoV(tr *trace.Trace, gap sim.Duration) float64 {
	var sizes []float64
	cur := 0.0
	last := tr.At(0).Time
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
		maxSize = max(maxSize, s)
	}
	kept := sizes[:0]
	for _, s := range sizes {
		if s >= 0.01*maxSize {
			kept = append(kept, s)
		}
	}
	st := stats.Summarize(kept)
	return st.SD / st.Mean
}
