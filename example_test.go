// The examples are the README's tour of the paper's findings, each run at
// a quick size. go test compares what each one prints with its Output
// block, so a change in what the simulator measures is a failing diff
// here, not a silent change in a demo. EXPERIMENTS.md (cmd/fxrepro) sets
// the paper's published values beside the paper-scale runs; no example
// prints one.
package fxnet_test

import (
	"fmt"
	"slices"

	"fxnet"
)

// Run one compiler-parallelized kernel on the simulated shared-Ethernet
// testbed, capture its traffic in promiscuous mode, and print the paper's
// basic characterization: packet sizes (figure 3), interarrival times
// (figure 4), average bandwidth (figure 5) and the dominant spectral spike
// (figure 7). SOR is the neighbor pattern: 2(P−1) connections.
func ExampleRun() {
	res, err := fxnet.Run(fxnet.RunConfig{
		Program: "sor",
		Seed:    1,
		Params:  fxnet.KernelParams{N: 128, Iters: 50},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	tr := res.Trace
	fmt.Printf("program %s finished at t=%s; captured %d packets\n",
		tr.Meta["program"], res.Elapsed, tr.Len())

	ss := fxnet.SizeStats(tr)
	fmt.Printf("packet sizes:   min=%.0f max=%.0f avg=%.1f sd=%.1f bytes\n", ss.Min, ss.Max, ss.Mean, ss.SD)
	// The max ≫ avg interarrival is the paper's burstiness signature.
	is := fxnet.InterarrivalStats(tr)
	fmt.Printf("interarrivals:  min=%.2f max=%.1f avg=%.2f ms (max/avg = %.0f×)\n",
		is.Min, is.Max, is.Mean, is.Max/is.Mean)
	fmt.Printf("avg bandwidth:  %.1f KB/s aggregate\n", fxnet.AverageBandwidthKBps(tr))

	for _, pr := range tr.Pairs() {
		conn := tr.Connection(pr[0], pr[1])
		fmt.Printf("  %s > %s: %3d packets, %5.2f KB/s\n",
			tr.HostName(pr[0]), tr.HostName(pr[1]), conn.Len(), fxnet.AverageBandwidthKBps(conn))
	}

	// The burst period appears as a spike.
	spec := fxnet.SpectrumOf(tr, fxnet.PaperWindow)
	fmt.Printf("dominant spectral spike: %.3f Hz (burst period %.2f s)\n",
		spec.DominantFreq(), 1/spec.DominantFreq())
	// Output:
	// program sor finished at t=30.000000s; captured 471 packets
	// packet sizes:   min=58 max=594 avg=399.4 sd=257.8 bytes
	// interarrivals:  min=0.07 max=388.3 avg=13.01 ms (max/avg = 30×)
	// avg bandwidth:  30.8 KB/s aggregate
	//   alpha0 > alpha1:  78 packets,  5.30 KB/s
	//   alpha1 > alpha0:  79 packets,  5.14 KB/s
	//   alpha1 > alpha2:  79 packets,  5.13 KB/s
	//   alpha2 > alpha1:  78 packets,  5.30 KB/s
	//   alpha2 > alpha3:  78 packets,  5.30 KB/s
	//   alpha3 > alpha2:  79 packets,  5.13 KB/s
	// dominant spectral spike: 9.277 Hz (burst period 0.11 s)
}

// The §7.2 loop end to end: measure the 2DFFT's traffic, take the power
// spectrum of its 10 ms bandwidth, truncate the implied Fourier series to
// its strongest spikes, and synthesize a packet trace from the model that
// keeps the measured mean rate and periodicity. The README quotes the
// first part.
func ExampleFitModel() {
	res, err := fxnet.Run(fxnet.RunConfig{Program: "2dfft", Seed: 3, Params: fxnet.KernelParams{Iters: 10}})
	if err != nil {
		fmt.Println(err)
		return
	}
	rep := fxnet.Characterize(res) // figures 3–7 for this run
	spec := rep.AggSpectrum        // power spectrum (figure 7)
	m, fit := fxnet.FitModel(rep.AggSeries, rep.SeriesDT, 8, 2*spec.DF)
	synth, err := m.GenerateTrace(20e9, fxnet.PaperWindow, 1460, 0, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("measured:  %.1f KB/s, spike at %.3f Hz\n", rep.AggKBps, spec.DominantFreq())
	fmt.Printf("synthetic: %.1f KB/s, spike at %.3f Hz\n",
		fxnet.AverageBandwidthKBps(synth), fxnet.SpectrumOf(synth, fxnet.PaperWindow).DominantFreq())
	fmt.Printf("model, NRMSE %.3f: %v\n", fit.NRMSE, m)

	// The strongest spikes, and the reconstruction closing in as more
	// of them are kept (equation 2).
	for _, p := range spec.Peaks(3, 2*spec.DF) {
		fmt.Printf("spike %.3f Hz (period %.2f s)\n", p.Freq, 1/p.Freq)
	}
	for _, k := range []int{1, 4, 16} {
		_, fit := fxnet.FitModel(rep.AggSeries, rep.SeriesDT, k, 2*spec.DF)
		fmt.Printf("%2d spikes: NRMSE %.3f, energy %.3f\n", k, fit.NRMSE, fit.EnergyFraction)
	}
	// Output:
	// measured:  735.0 KB/s, spike at 0.439 Hz
	// synthetic: 758.4 KB/s, spike at 0.439 Hz
	// model, NRMSE 0.257: dc=734.9KB/s +397.9@0.439Hz +282.2@0.879Hz +130.8@1.29Hz +108.2@0.366Hz +81.8@2.17Hz +69.3@2.61Hz +68.6@0.806Hz +55.7@3.03Hz
	// spike 0.439 Hz (period 2.28 s)
	// spike 0.879 Hz (period 1.14 s)
	// spike 1.294 Hz (period 0.77 s)
	//  1 spikes: NRMSE 0.313, energy 0.173
	//  4 spikes: NRMSE 0.265, energy 0.291
	// 16 spikes: NRMSE 0.255, energy 0.331
}

// The §7.3 negotiation and the processor-count tension the paper
// highlights: a compute-heavy program wants many processors, a
// communication-heavy one is told to use fewer, because every added
// processor also splits the burst bandwidth the network can commit per
// connection.
func ExampleNewQoSNetwork() {
	// Programs with 10 s of perfectly parallel work that differ only in
	// how many bytes each connection bursts and in their pattern.
	program := func(burstBytes float64, pat fxnet.Pattern) fxnet.QoSProgram {
		return fxnet.QoSProgram{
			Name:    pat.String(),
			Pattern: pat,
			Local:   func(P int) float64 { return 10 / float64(P) },
			Burst:   func(P int) float64 { return burstBytes },
		}
	}
	negotiate := func(label string, capacity float64, prog fxnet.QoSProgram) {
		off, err := fxnet.NewQoSNetwork(capacity).Negotiate(prog, 64)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-28s %4d %8.3f %9.1f\n", label, off.P, off.BurstInterval, off.BurstBandwidth/1000)
	}

	fmt.Println("program on network             P*  tbi (s)  B (KB/s)")
	for _, kb := range []float64{1, 10, 200, 1000} {
		negotiate(fmt.Sprintf("%.0f KB neighbor, 10 Mb/s", kb), 1.25e6, program(kb*1000, fxnet.Neighbor))
	}
	// A faster network moves the optimum up.
	for _, mbps := range []float64{100, 1000} {
		negotiate(fmt.Sprintf("200 KB neighbor, %.0f Mb/s", mbps), mbps*1e6/8, program(200e3, fxnet.Neighbor))
	}
	// All-to-all splits the capacity across P concurrent senders,
	// broadcast across one.
	for _, pc := range []struct {
		name string
		pat  fxnet.Pattern
	}{
		{"neighbor", fxnet.Neighbor},
		{"all-to-all", fxnet.AllToAll},
		{"partition", fxnet.Partition},
		{"broadcast", fxnet.Broadcast},
		{"tree", fxnet.Tree},
	} {
		negotiate("100 KB "+pc.name+", 10 Mb/s", 1.25e6, program(100e3, pc.pat))
	}
	// Output:
	// program on network             P*  tbi (s)  B (KB/s)
	// 1 KB neighbor, 10 Mb/s         64    0.207      19.5
	// 10 KB neighbor, 10 Mb/s        35    0.566      35.7
	// 200 KB neighbor, 10 Mb/s        8    2.530     156.2
	// 1000 KB neighbor, 10 Mb/s       4    5.700     312.5
	// 200 KB neighbor, 100 Mb/s      25    0.800     500.0
	// 200 KB neighbor, 1000 Mb/s     64    0.259    1953.1
	// 100 KB neighbor, 10 Mb/s       11    1.789     113.6
	// 100 KB all-to-all, 10 Mb/s     11    1.789     113.6
	// 100 KB partition, 10 Mb/s      15    1.227     178.6
	// 100 KB broadcast, 10 Mb/s      64    0.236    1250.0
	// 100 KB tree, 10 Mb/s           15    1.227     178.6
}

// AIRSHED, the paper's "real application", has three time scales
// (figure 11): the simulation hour, the chemistry and vertical-transport
// phase, and the horizontal-transport phase each leave their own spike.
func ExamplePaperAirshedParams() {
	params := fxnet.PaperAirshedParams()
	params.Hours = 6 // the paper's 100 hours, shortened to a quick run
	fmt.Printf("AIRSHED: %d species, %d grid points, %d layers, %d steps/hour, %d hours\n",
		params.Species, params.Grid, params.Layers, params.Steps, params.Hours)
	res, err := fxnet.Run(fxnet.RunConfig{Program: "airshed", Seed: 5, AirshedParams: params})
	if err != nil {
		fmt.Println(err)
		return
	}
	tr := res.Trace
	fmt.Printf("finished at t=%s; %d packets\n", res.Elapsed, tr.Len())
	fmt.Printf("bandwidth: %.1f KB/s aggregate, %.1f KB/s on %s > %s\n", fxnet.AverageBandwidthKBps(tr),
		fxnet.AverageBandwidthKBps(tr.Connection(1, 0)), tr.HostName(1), tr.HostName(0))
	// The quiet preprocessing gaps dwarf the kernels' interarrivals.
	is := fxnet.InterarrivalStats(tr)
	fmt.Printf("interarrivals: avg %.1f ms, max %.0f ms\n", is.Mean, is.Max)

	spec := fxnet.SpectrumOf(tr, fxnet.PaperWindow)
	for _, band := range []struct {
		name   string
		lo, hi float64
	}{
		{"simulation hour", 0.005, 0.05},
		{"chemistry phase", 0.1, 0.5},
		{"transport phase", 1, 8},
	} {
		best, bestP := band.lo, -1.0
		for i, f := range spec.Freq {
			if f >= band.lo && f < band.hi && spec.Power[i] > bestP {
				best, bestP = f, spec.Power[i]
			}
		}
		fmt.Printf("%-16s %.4f Hz (period %5.1f s)\n", band.name, best, 1/best)
	}
	// Output:
	// AIRSHED: 35 species, 1024 grid points, 4 layers, 5 steps/hour, 6 hours
	// finished at t=420.000000s; 27474 packets
	// bandwidth: 67.9 KB/s aggregate, 5.7 KB/s on alpha1 > alpha0
	// interarrivals: avg 14.7 ms, max 13070 ms
	// simulation hour  0.0137 Hz (period  72.8 s)
	// chemistry phase  0.1724 Hz (period   5.8 s)
	// transport phase  1.1536 Hz (period   0.9 s)
}

// The paper's conclusion in one run: a compiler-parallelized program has
// constant burst sizes and a period set by the program and the network; a
// VBR video stream has a period intrinsic to its frame rate and burst
// sizes that vary; classic LAN traffic is self-similar, which neither of
// the others is.
func ExampleGenerateVBR() {
	res, err := fxnet.Run(fxnet.RunConfig{
		Program: "2dfft", Seed: 7, Params: fxnet.KernelParams{Iters: 10},
		DisableDesched: true, KeepaliveInterval: -1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	parSeries, _ := fxnet.BinnedBandwidth(res.Trace, fxnet.PaperWindow)
	video := fxnet.GenerateVBR(fxnet.VBRConfig{}, 20e9, 7, 0, 1)
	onoff := fxnet.GenerateOnOff(fxnet.OnOffConfig{}, 200e9, 7)
	onoffSeries, _ := fxnet.BinnedBandwidth(onoff, 100e6)

	fmt.Println("source           burst-size CoV  Hurst  period")
	fmt.Printf("2DFFT (parallel) %14.4f  %5.2f  %.2f Hz\n", fxnet.CoV(burstSizes(res.Trace, 100e6)),
		fxnet.Hurst(parSeries), fxnet.SpectrumOf(res.Trace, fxnet.PaperWindow).DominantFreq())
	fmt.Printf("VBR video        %14.4f      -  %.1f Hz\n", fxnet.CoV(burstSizes(video, 5e6)),
		fxnet.SpectrumOf(video, 5e6).DominantFreq())
	fmt.Printf("Pareto on/off                 -  %5.2f  none\n", fxnet.Hurst(onoffSeries))
	// Output:
	// source           burst-size CoV  Hurst  period
	// 2DFFT (parallel)         0.0000   0.67  0.44 Hz
	// VBR video                0.9807      -  30.0 Hz
	// Pareto on/off                 -   0.86  none
}

// burstSizes segments a trace at idle gaps ≥ gap and returns the byte
// totals of its bursts: not the two the trace's ends cut, nor the lone
// delayed ACKs that end a phase (under 1 % of the largest burst).
func burstSizes(tr *fxnet.Trace, gap fxnet.Duration) []float64 {
	var sizes []float64
	cur := 0.0
	for i, p := range tr.Packets {
		if i > 0 && p.Time.Sub(tr.At(i-1).Time) >= gap {
			sizes = append(sizes, cur)
			cur = 0
		}
		cur += float64(p.Size)
	}
	sizes = sizes[1:]
	largest := slices.Max(sizes)
	var kept []float64
	for _, s := range sizes {
		if s >= 0.01*largest {
			kept = append(kept, s)
		}
	}
	return kept
}
