package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/kernels"
)

// BenchmarkPaperFigures collects the paper-scale runs fxrepro prints
// (seed 42), holds the shape each figure claims and the direction each
// ablation claims, reading the same reports and values render prints
// from, holds every faulted shared-segment trace to the exclusion
// oracle, and fails when the committed EXPERIMENTS.md is not the
// rendering. It is a benchmark so that `go test ./...` stays fast:
//
//	go test -run '^$' -bench PaperFigures -benchtime 1x ./cmd/fxrepro
func BenchmarkPaperFigures(b *testing.B) {
	var r runs
	for i := 0; i < b.N; i++ {
		var err error
		if r, _, err = collect(reproOptions{Seed: 42}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	// Figure 5: 2DFFT > T2DFFT ≫ SEQ > SOR, and HIST > SOR.
	kbps := func(n string) float64 { return r.report(n).AggKBps }
	if !(kbps("2dfft") > kbps("t2dfft") && kbps("t2dfft") > kbps("seq") && kbps("seq") > kbps("sor") && kbps("hist") > kbps("sor")) {
		b.Errorf("fig. 5: bandwidth ordering broken: sor %v, 2dfft %v, t2dfft %v, seq %v, hist %v",
			kbps("sor"), kbps("2dfft"), kbps("t2dfft"), kbps("seq"), kbps("hist"))
	}
	// Figure 6: bursts reach above the mean with idle time between. For
	// the near-saturating FFTs the paper's own ratio is only ≈1.8 (754 KB/s
	// mean, ≈1300 KB/s bursts).
	for _, name := range kernels.Names() {
		rep := r.report(name)
		if _, peak, _ := window(rep, fig6Span); peak < 1.5*rep.AggKBps {
			b.Errorf("fig. 6: %s peak %.0f KB/s not ≫ mean %.0f KB/s; burstiness lost", name, peak, rep.AggKBps)
		}
	}

	air := r.report("airshed")
	// Figure 8: the representative connection's sizes track the aggregate's.
	if d := air.AggSize.Mean - air.ConnSize.Mean; d > 200 || d < -200 {
		b.Errorf("fig. 8: connection mean %.0f far from aggregate %.0f", air.ConnSize.Mean, air.AggSize.Mean)
	}
	// Figure 9: AIRSHED's gaps are above the kernels' scale.
	if air.AggInterarrival.Max <= r.report("sor").AggInterarrival.Max {
		b.Errorf("fig. 9: AIRSHED max interarrival %.1f ms not above SOR's %.1f ms",
			air.AggInterarrival.Max, r.report("sor").AggInterarrival.Max)
	}
	// §6.2: the aggregate/connection ratio ≈ the 12 connections.
	if ratio := air.AggKBps / air.ConnKBps; ratio < 8 || ratio > 16 {
		b.Errorf("§6.2: agg/conn ratio = %v, want ≈12", ratio)
	}
	// Figure 10: transpose bursts near wire speed in the 500 s view.
	if _, peak, _ := window(air, fig10Spans[0]); peak < 800 {
		b.Errorf("fig. 10: peak = %v KB/s; transpose bursts should near wire speed", peak)
	}
	// Figure 11: the hour-scale fundamental.
	hour := airshedBands[0]
	if f := strongestIn(air.AggSpectrum, hour.lo, hour.hi); f < 0.008 || f > 0.03 {
		b.Errorf("fig. 11: hour-scale peak at %v Hz, want ≈0.015", f)
	}
	// §7.2: the truncated model converges as spikes are added.
	mets := fits(r.report("2dfft"))
	for i := 1; i < len(mets); i++ {
		if mets[i].NRMSE > mets[i-1].NRMSE+1e-9 {
			b.Errorf("§7.2: 2DFFT NRMSE not monotone in k: k=%d %.4f, k=%d %.4f",
				spikeCounts[i-1], mets[i-1].NRMSE, spikeCounts[i], mets[i].NRMSE)
		}
	}

	holdAblations(b, measure(r))
	// Exclusion on every shared-segment trace, faulted runs included, at
	// its own bit rate.
	for label, jr := range r {
		if jr.Job.Stream || jr.Job.Config.Switched {
			continue
		}
		rate := jr.Job.Config.BitRate
		if rate == 0 {
			rate = ethernet.DefaultBitRate
		}
		if err := checkExclusion(jr.Result.Trace, rate); err != nil {
			b.Errorf("%s: %v", label, err)
		}
	}

	var doc bytes.Buffer
	if err := render(&doc, r); err != nil {
		b.Fatal(err)
	}
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		b.Fatal(err)
	}
	if doc.String() != string(committed) {
		b.Errorf("EXPERIMENTS.md is not the rendering; regenerate it with go run ./cmd/fxrepro > EXPERIMENTS.md:\n%s",
			firstDiff(string(committed), doc.String()))
	}
}

// holdAblations holds the direction each ablation block claims.
func holdAblations(b *testing.B, a ablations) {
	if frag, cp := a.fullFrac[0], a.fullFrac[1]; cp < frag+0.3 {
		b.Errorf("fragments: copy-loop full-segment fraction %.2f not ≫ fragment %.2f", cp, frag)
	}
	if a.bwHz[1] <= a.bwHz[0] {
		b.Errorf("periodicity: fundamental did not rise with bandwidth: %v Hz → %v Hz", a.bwHz[0], a.bwHz[1])
	}
	for j := 1; j < len(a.windowHz); j++ {
		if ratio := a.windowHz[j] / a.windowHz[0]; ratio < 0.8 || ratio > 1.25 {
			b.Errorf("window: dominant frequency unstable across bins: %v", a.windowHz)
		}
	}
	for i, P := range scaleP {
		if got := a.pairs[i]; got != [2]int{2 * (P - 1), P * (P - 1)} {
			b.Errorf("scaling: P=%d: sor pairs %d, want %d; 2dfft pairs %d, want %d", P, got[0], 2*(P-1), got[1], P*(P-1))
		}
	}
	if clean, noisy := a.deschedMaxIA[0], a.deschedMaxIA[1]; noisy < clean+100 {
		b.Errorf("descheduling did not lengthen stalls: %v vs %v ms", noisy, clean)
	}
	if a.coincidence < 0.9 {
		b.Errorf("phase coincidence = %v, want ≈1 (paper: in-phase connections)", a.coincidence)
	}
	if a.burstCoV > 0.05 {
		b.Errorf("burst size spread sd/mean = %v, want small", a.burstCoV)
	}
	if a.lossShare[1] >= a.lossShare[0] {
		b.Errorf("loss did not blur the spectrum: %v vs %v", a.lossShare[1], a.lossShare[0])
	}
	if a.lossKBps[1] >= a.lossKBps[0] {
		b.Errorf("loss did not slow the program: %v vs %v KB/s", a.lossKBps[1], a.lossKBps[0])
	}
	if a.switchHz[1] <= a.switchHz[0] {
		b.Errorf("switching did not shorten the burst period: %v vs %v Hz", a.switchHz[1], a.switchHz[0])
	}
	if a.switchKBps[1] <= a.switchKBps[0] {
		b.Errorf("switching did not raise throughput: %v vs %v KB/s", a.switchKBps[1], a.switchKBps[0])
	}
	if a.naglePkts[1] >= a.naglePkts[0] {
		b.Errorf("Nagle did not reduce packet count: %d vs %d", a.naglePkts[1], a.naglePkts[0])
	}
	if a.nagleAvg[1] <= a.nagleAvg[0] {
		b.Errorf("Nagle did not grow packets: %.0f vs %.0f bytes", a.nagleAvg[1], a.nagleAvg[0])
	}
	pre, during, post := a.flapHz[0], a.flapHz[1], a.flapHz[2]
	if pre == 0 || math.Abs(during-pre)/pre < 0.15 {
		b.Errorf("flap: outage did not shift the fundamental: pre %.3f Hz, during %.3f Hz", pre, during)
	}
	if pre == 0 || math.Abs(post-pre)/pre > 0.10 {
		b.Errorf("flap: fundamental did not recover after heal: pre %.3f Hz, post %.3f Hz", pre, post)
	}
	if clean, flap := a.flapMaxIA[0], a.flapMaxIA[1]; flap < 2000 || clean > 1500 {
		b.Errorf("flap: outage hole not visible in interarrivals: flap max %v ms, clean max %v ms", flap, clean)
	}
	if a.parCoV >= 0.1 {
		b.Errorf("media: parallel burst-size CoV = %v, want ≈0 (constant bursts)", a.parCoV)
	}
	if a.vidCoV <= 3*a.parCoV {
		b.Errorf("media: video burst CoV %v not ≫ parallel %v", a.vidCoV, a.parCoV)
	}
	if a.onoffH <= a.parH {
		b.Errorf("media: on/off Hurst %v not above parallel %v", a.onoffH, a.parH)
	}
	if clean, loaded, guaranteed := a.qosPeriod[0], a.qosPeriod[1], a.qosPeriod[2]; loaded < clean*1.05 || guaranteed > clean*1.1 {
		b.Errorf("QoS: unloaded %.2fs, loaded %.2fs (want ≥ 5%% slower), guaranteed %.2fs (want within 10%%)", clean, loaded, guaranteed)
	}
	for i, P := range scaleP {
		predicted, measured := a.sec73[i][0], a.sec73[i][1]
		if ratio := measured / predicted; ratio < 0.75 || ratio > 1.33 {
			b.Errorf("§7.3: P=%d: measured period %.2fs vs predicted %.2fs (ratio %.2f)", P, measured, predicted, ratio)
		}
	}
}
