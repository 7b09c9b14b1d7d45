package main

import (
	"io"
	"testing"

	"fxnet/internal/core"
	"fxnet/internal/kernels"
)

// BenchmarkEndToEndQuickRun measures one serial pass over every program
// at the -quick sizes, for measuring while working; the tracked
// end-to-end numbers are run_s per workload from `go run ./bench`.
func BenchmarkEndToEndQuickRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range core.ProgramNames() {
			cfg := reproConfig(name, reproOptions{Quick: true, Seed: 42})
			if _, err := core.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPaperFigures collects the paper-scale runs fxrepro prints
// (seed 42) and holds the shape each figure claims, reading the same
// reports through the same window, band and model helpers render
// prints from. It is a benchmark so that `go test ./...` stays fast:
//
//	go test -run '^$' -bench PaperFigures -benchtime 1x ./cmd/fxrepro
func BenchmarkPaperFigures(b *testing.B) {
	var reports map[string]*core.Report
	for i := 0; i < b.N; i++ {
		var err error
		if reports, _, err = collect(reproOptions{Seed: 42}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	// Figure 5: 2DFFT > T2DFFT ≫ SEQ > SOR, and HIST > SOR.
	kbps := func(n string) float64 { return reports[n].AggKBps }
	if !(kbps("2dfft") > kbps("t2dfft") && kbps("t2dfft") > kbps("seq") && kbps("seq") > kbps("sor") && kbps("hist") > kbps("sor")) {
		b.Errorf("fig. 5: bandwidth ordering broken: sor %v, 2dfft %v, t2dfft %v, seq %v, hist %v",
			kbps("sor"), kbps("2dfft"), kbps("t2dfft"), kbps("seq"), kbps("hist"))
	}
	// Figure 6: bursts reach above the mean with idle time between. For
	// the near-saturating FFTs the paper's own ratio is only ≈1.8 (754 KB/s
	// mean, ≈1300 KB/s bursts).
	for _, name := range kernels.Names() {
		r := reports[name]
		if _, peak, _ := window(r, fig6Span); peak < 1.5*r.AggKBps {
			b.Errorf("fig. 6: %s peak %.0f KB/s not ≫ mean %.0f KB/s; burstiness lost", name, peak, r.AggKBps)
		}
	}

	air := reports["airshed"]
	// Figure 8: the representative connection's sizes track the aggregate's.
	if d := air.AggSize.Mean - air.ConnSize.Mean; d > 200 || d < -200 {
		b.Errorf("fig. 8: connection mean %.0f far from aggregate %.0f", air.ConnSize.Mean, air.AggSize.Mean)
	}
	// Figure 9: AIRSHED's gaps are above the kernels' scale.
	if air.AggInterarrival.Max <= reports["sor"].AggInterarrival.Max {
		b.Errorf("fig. 9: AIRSHED max interarrival %.1f ms not above SOR's %.1f ms",
			air.AggInterarrival.Max, reports["sor"].AggInterarrival.Max)
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
	mets := fits(reports["2dfft"])
	for i := 1; i < len(mets); i++ {
		if mets[i].NRMSE > mets[i-1].NRMSE+1e-9 {
			b.Errorf("§7.2: 2DFFT NRMSE not monotone in k: k=%d %.4f, k=%d %.4f",
				spikeCounts[i-1], mets[i-1].NRMSE, spikeCounts[i], mets[i].NRMSE)
		}
	}
}
