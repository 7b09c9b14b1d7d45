// Smoke tests of the public façade at reduced scale (the paper-scale
// regressions live in the benchmarks).
package fxnet_test

import (
	"math"
	"testing"

	"fxnet"
	"fxnet/internal/airshed"
	"fxnet/internal/core"
)

func TestFacadeRunAndCharacterize(t *testing.T) {
	for _, name := range core.ProgramNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := fxnet.RunConfig{Program: name, Seed: 1}
			if name == "airshed" {
				cfg.AirshedParams = airshed.Params{Layers: 4, Species: 4, Grid: 32, Steps: 2, Hours: 2, Band: 2}
			} else {
				cfg.Params = fxnet.KernelParams{N: 16, Iters: 3}
			}
			res, err := fxnet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := fxnet.Characterize(res)
			if rep.AggKBps <= 0 || rep.AggSize.N == 0 {
				t.Fatalf("empty characterization: %+v", rep)
			}
		})
	}
}

func TestFacadePrograms(t *testing.T) {
	progs := core.ProgramNames()
	if len(progs) != 6 {
		t.Fatalf("programs = %v", progs)
	}
	if progs[5] != "airshed" {
		t.Errorf("last program = %q", progs[5])
	}
}

func TestFacadeSpectralModelLoop(t *testing.T) {
	res, err := fxnet.Run(fxnet.RunConfig{
		Program: "seq", Seed: 1, Params: fxnet.KernelParams{N: 16, Iters: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	series, dt := fxnet.BinnedBandwidth(res.Trace, fxnet.PaperWindow)
	m, met := fxnet.FitModel(series, dt, 4, 0.1)
	if m.DC <= 0 {
		t.Errorf("model DC = %v", m.DC)
	}
	if met.NRMSE < 0 || met.NRMSE > 1 {
		t.Errorf("NRMSE = %v", met.NRMSE)
	}
	if met.EnergyFraction < 0 || met.EnergyFraction > 1 {
		t.Errorf("energy fraction = %v", met.EnergyFraction)
	}
}

func TestFacadeQoS(t *testing.T) {
	net := fxnet.NewQoSNetwork(1.25e6)
	prog := fxnet.QoSProgram{
		Name:    "demo",
		Local:   func(P int) float64 { return 1.0 / float64(P) },
		Burst:   func(P int) float64 { return 1e5 / float64(P*P) },
		Pattern: fxnet.AllToAll,
	}
	off, err := net.Negotiate(prog, 16)
	if err != nil {
		t.Fatal(err)
	}
	if off.P < 2 || off.P > 16 || math.IsInf(off.BurstInterval, 0) {
		t.Errorf("offer = %+v", off)
	}
}

func TestPaperAirshedParams(t *testing.T) {
	p := fxnet.PaperAirshedParams()
	if p.Species != 35 || p.Grid != 1024 {
		t.Errorf("params = %+v", p)
	}
}

func TestFacadeMediaSources(t *testing.T) {
	video := fxnet.GenerateVBR(fxnet.VBRConfig{}, 5_000_000_000, 1, 0, 1)
	if video.Len() == 0 {
		t.Fatal("empty video trace")
	}
	onoff := fxnet.GenerateOnOff(fxnet.OnOffConfig{Sources: 2}, 5_000_000_000, 1)
	if onoff.Len() == 0 {
		t.Fatal("empty on/off trace")
	}
	series, _ := fxnet.BinnedBandwidth(video, fxnet.PaperWindow)
	if h := fxnet.Hurst(series); h < 0 || h > 1 {
		t.Errorf("Hurst = %v", h)
	}
	if cov := fxnet.CoV(series); cov <= 0 {
		t.Errorf("CoV = %v", cov)
	}
}

func TestFacadeSpectrumAndStats(t *testing.T) {
	res, err := fxnet.Run(fxnet.RunConfig{Program: "hist", Seed: 1, Params: fxnet.KernelParams{N: 32, Iters: 10}})
	if err != nil {
		t.Fatal(err)
	}
	spec := fxnet.SpectrumOf(res.Trace, fxnet.PaperWindow)
	if spec.DominantFreq() <= 0 {
		t.Error("no dominant frequency")
	}
	if ss := fxnet.SizeStats(res.Trace); ss.N == 0 {
		t.Error("no size stats")
	}
	if is := fxnet.InterarrivalStats(res.Trace); is.N == 0 {
		t.Error("no interarrival stats")
	}
}
