package media

import (
	"math"
	"testing"

	"fxnet/internal/analysis"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
)

func TestVBRFrameRateSpike(t *testing.T) {
	// The stream's intrinsic periodicity is the frame rate: the spectrum
	// of the binned bandwidth spikes at 30 Hz.
	tr := GenerateVBR(VBRConfig{}, 60*sim.Second, 1, 0, 1)
	if tr.Len() == 0 {
		t.Fatal("no packets")
	}
	spec := analysis.Spectrum(tr, 5*sim.Millisecond) // 100 Hz Nyquist
	peaks := spec.Peaks(5, 1)
	found := false
	for _, p := range peaks {
		if math.Abs(p.Freq-30) < 0.5 || math.Abs(p.Freq-30/12.0*12) < 0.5 {
			found = true
		}
	}
	// At least one strong spike at the frame rate or the GOP rate (2.5 Hz).
	gop := false
	for _, p := range peaks {
		if math.Abs(p.Freq-2.5) < 0.2 {
			gop = true
		}
	}
	if !found && !gop {
		t.Errorf("no frame-rate or GOP spike; peaks = %+v", peaks)
	}
}

func TestVBRVariableBurstSizes(t *testing.T) {
	// The defining property: burst (frame) sizes vary, unlike a parallel
	// program's constant phases.
	tr := GenerateVBR(VBRConfig{}, 30*sim.Second, 2, 0, 1)
	// Group packets into frames by the 33 ms cadence.
	var frames []float64
	cur := 0.0
	last := tr.At(0).Time
	for i, p := range tr.Packets {
		if i > 0 && p.Time.Sub(last) > 5*sim.Millisecond {
			frames = append(frames, cur)
			cur = 0
		}
		cur += float64(p.Size)
		last = p.Time
	}
	frames = append(frames, cur)
	if cov := stats.CoV(frames); cov < 0.3 {
		t.Errorf("frame-size CoV = %v, want substantial variability", cov)
	}
}

func TestVBRMeanRate(t *testing.T) {
	// 30 fps × (12 KB/12 + 3 KB×11/12) ≈ 112 KB/s.
	tr := GenerateVBR(VBRConfig{}, 120*sim.Second, 3, 0, 1)
	rate := analysis.AverageBandwidthKBps(tr)
	if rate < 70 || rate > 200 {
		t.Errorf("mean rate = %v KB/s, want ≈112", rate)
	}
}

func TestVBRDeterminism(t *testing.T) {
	a := GenerateVBR(VBRConfig{}, 10*sim.Second, 7, 0, 1)
	b := GenerateVBR(VBRConfig{}, 10*sim.Second, 7, 0, 1)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Len() {
		if a.At(i) != b.At(i) {
			t.Fatal("nondeterministic")
		}
	}
	c := GenerateVBR(VBRConfig{}, 10*sim.Second, 8, 0, 1)
	if c.Len() == a.Len() && c.TotalBytes() == a.TotalBytes() {
		t.Error("different seeds produced identical stream")
	}
}

func TestOnOffSelfSimilarity(t *testing.T) {
	// Superposed heavy-tailed on/off sources show long-range dependence:
	// H well above the 0.5 of short-range traffic.
	tr := GenerateOnOff(OnOffConfig{}, 200*sim.Second, 5)
	series, _ := analysis.BinnedBandwidth(tr, 100*sim.Millisecond)
	h := stats.HurstAggVar(series, nil)
	if h < 0.6 {
		t.Errorf("on/off H = %v, want > 0.6 (self-similar)", h)
	}
}

func TestOnOffSorted(t *testing.T) {
	tr := GenerateOnOff(OnOffConfig{Sources: 4}, 20*sim.Second, 9)
	var prev sim.Time
	for _, p := range tr.Packets {
		if p.Time < prev {
			t.Fatal("packets out of order")
		}
		prev = p.Time
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := VBRConfig{}.withDefaults()
	if c.FPS != 30 || c.GOP != 12 || c.PacketBytes != 1460 {
		t.Errorf("defaults = %+v", c)
	}
	o := OnOffConfig{}.withDefaults()
	if o.ParetoAlpha != 1.4 || o.Sources != 8 {
		t.Errorf("defaults = %+v", o)
	}
}
