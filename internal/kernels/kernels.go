// Package kernels implements the five Fx test-suite kernels the paper
// measures — SOR, 2DFFT, T2DFFT, SEQ, and HIST — with real computation on
// distributed data: actual relaxation sweeps, actual FFTs, actual
// histograms. Message payloads are the real bytes of the arrays being
// exchanged, so packet sizes on the simulated wire are exact.
//
// Each kernel carries calibrated cost-model rates (operations per virtual
// second) chosen once so that the burst periods and bandwidths land in
// the regime of the paper's 1998 testbed; EXPERIMENTS.md documents the
// calibration. The computation itself is verified against sequential
// references in the package tests.
package kernels

import (
	"fmt"
	"math"

	"fxnet/internal/fx"
	"fxnet/internal/qos"
)

// Params are the common kernel parameters.
type Params struct {
	// N is the matrix dimension (kernels operate on N×N data).
	N int
	// Iters is the outer iteration count (the paper uses 100; 5 for SEQ).
	Iters int
}

// Spec describes one kernel for the experiment harness.
type Spec struct {
	Name string
	// P is the paper's processor count for this kernel.
	P int
	// Params are the paper-scale defaults.
	Params Params
	// Rates are the calibrated cost-model rates.
	Rates map[string]float64
	// UseFragments marks kernels that pack messages as fragment lists.
	UseFragments bool
	// Run executes the kernel body on one worker.
	Run func(w *fx.Worker, p Params)
	// RepresentativeConn designates the (src, dst) host pair the paper
	// plots for this kernel, or (-1, -1) when the pattern has no
	// representative connection (SEQ, HIST).
	RepresentativeConn [2]int
	// QoS builds the §7.3 [l(), b(), c] characterization at the given
	// problem size, from the same calibrated rates the cost model uses.
	// It is the one hand-written record of what the kernel sends: the
	// catalog reads c from it, degraded-team renegotiation feeds it back
	// to qos.Network.Negotiate to pick the post-fault processor count, and
	// TestKernelTrafficMatchesCompiler holds b and c to the compile-time
	// schedule of the kernel's communication statement and to the wire.
	QoS func(p Params) qos.Program
}

// All lists the five kernels with paper-scale defaults.
var All = []Spec{
	{
		Name:   "sor",
		P:      4,
		Params: Params{N: 512, Iters: 100},
		Rates:  map[string]float64{"sor.update": 38500},
		Run:    func(w *fx.Worker, p Params) { SOR(w, p) },
		// The paper picks an arbitrary adjacent pair.
		RepresentativeConn: [2]int{1, 0},
		QoS: func(p Params) qos.Program {
			n := float64(p.N)
			return qos.Program{
				Name:    "sor",
				Local:   func(P int) float64 { return n * (n - 2) / float64(P) / 38500 },
				Burst:   qos.SurfaceBurst(n * 4), // one float32 halo row
				Pattern: fx.Neighbor,
			}
		},
	},
	{
		Name:               "2dfft",
		P:                  4,
		Params:             Params{N: 512, Iters: 100},
		Rates:              map[string]float64{"fft.flop": 8.4e6},
		Run:                func(w *fx.Worker, p Params) { FFT2D(w, p) },
		RepresentativeConn: [2]int{1, 0},
		QoS: func(p Params) qos.Program {
			n := float64(p.N)
			return qos.Program{
				Name: "2dfft",
				// Two batches of n row/column FFTs per iteration.
				Local:   func(P int) float64 { return 2 * n * fftFlops(p.N) / float64(P) / 8.4e6 },
				Burst:   qos.BlockBurst(n * n * 8), // complex transpose blocks
				Pattern: fx.AllToAll,
			}
		},
	},
	{
		Name:         "t2dfft",
		P:            4,
		Params:       Params{N: 512, Iters: 100},
		Rates:        map[string]float64{"tfft.flop": 2.5e6},
		UseFragments: true,
		Run:          func(w *fx.Worker, p Params) { T2DFFT(w, p) },
		// A sender-half to receiver-half pair.
		RepresentativeConn: [2]int{0, 2},
		QoS: func(p Params) qos.Program {
			n := float64(p.N)
			return qos.Program{
				Name: "t2dfft",
				// Each half pipelines one batch of n FFTs split across P/2.
				// Odd P is infeasible (the kernel needs two equal halves);
				// an infinite local time steers Negotiate to even P.
				Local: func(P int) float64 {
					if P%2 != 0 {
						return math.Inf(1)
					}
					return n * fftFlops(p.N) / float64(P/2) / 2.5e6
				},
				// Sender-half block to one receiver: (n/half)² complex64s.
				Burst: func(P int) float64 {
					half := max(P/2, 1)
					return n * n * 8 / float64(half*half)
				},
				Pattern: fx.Partition,
			}
		},
	},
	{
		Name:               "seq",
		P:                  4,
		Params:             Params{N: 40, Iters: 5},
		Rates:              map[string]float64{"seq.produce": 160},
		Run:                func(w *fx.Worker, p Params) { SEQ(w, p) },
		RepresentativeConn: [2]int{-1, -1},
		QoS: func(p Params) qos.Program {
			n := float64(p.N)
			return qos.Program{
				Name: "seq",
				// Serial producer: one row of input per phase, P-independent.
				Local:   func(P int) float64 { return n / 160 },
				Burst:   qos.SurfaceBurst(n * seqElemBytes), // one row per peer
				Pattern: fx.Broadcast,
			}
		},
	},
	{
		Name:               "hist",
		P:                  4,
		Params:             Params{N: 512, Iters: 100},
		Rates:              map[string]float64{"hist.bin": 364000},
		Run:                func(w *fx.Worker, p Params) { HIST(w, p) },
		RepresentativeConn: [2]int{-1, -1},
		QoS: func(p Params) qos.Program {
			n := float64(p.N)
			return qos.Program{
				Name:    "hist",
				Local:   func(P int) float64 { return n * n / float64(P) / 364000 },
				Burst:   qos.SurfaceBurst(256 * 8), // one bin array per hop
				Pattern: fx.Tree,
			}
		},
	},
}

// Lookup finds a kernel spec by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range All {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the kernel names in registry order.
func Names() []string {
	out := make([]string, len(All))
	for i, s := range All {
		out[i] = s.Name
	}
	return out
}

// initValue is the deterministic data generator shared by the kernels and
// their sequential references: a smooth, mildly oscillatory field in
// [0, 1).
func initValue(i, j, n int) float64 {
	x := float64(i) / float64(n)
	y := float64(j) / float64(n)
	v := 0.5 + 0.25*math.Sin(7*math.Pi*x)*math.Cos(5*math.Pi*y) + 0.2*x*y
	if v < 0 {
		v = 0
	}
	if v >= 1 {
		v = math.Nextafter(1, 0)
	}
	return v
}

// checkRank panics when a kernel is launched with an unusable rank/P
// combination.
func checkRank(w *fx.Worker, kernel string, minP int) {
	if w.P < minP {
		panic(fmt.Sprintf("kernels: %s requires P ≥ %d, got %d", kernel, minP, w.P))
	}
}
