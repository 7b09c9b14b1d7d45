// Package media generates the traffic the paper contrasts parallel
// programs against: variable-bit-rate video streams, whose "intrinsic
// periodicity [is] due to a frame rate" with *variable* burst sizes —
// the mirror image of a parallel program's known burst size and variable
// period (§8). The model is a GOP-structured VBR source in the spirit of
// Garrett & Willinger's MPEG analysis (the paper's reference [11]):
// frames arrive at a fixed rate; I-frames are large, P- and B-frames
// smaller; sizes are lognormally distributed with optional long-range
// scene modulation.
package media

import (
	"math"
	"math/rand"
	"sort"

	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

// VBRConfig shapes the video source.
type VBRConfig struct {
	// FPS is the frame rate (the intrinsic periodicity). Default 30.
	FPS float64
	// GOP is the group-of-pictures length: one I-frame every GOP frames.
	// Default 12.
	GOP int
	// MeanIBytes / MeanPBytes are mean frame sizes. Defaults 12 KB / 3 KB
	// (≈ 1.1 Mb/s, a mid-90s MPEG-1 stream).
	MeanIBytes, MeanPBytes float64
	// SizeSigma is the lognormal σ of frame sizes (burst-size
	// variability, the defining property). Default 0.35.
	SizeSigma float64
	// SceneMean is the mean scene length in seconds; at each scene change
	// the size scale resamples, giving slow modulation. Default 4 s.
	SceneMean float64
	// PacketBytes is the transport segmentation (payload per packet).
	// Default 1460.
	PacketBytes int
}

func (c VBRConfig) withDefaults() VBRConfig {
	if c.FPS <= 0 {
		c.FPS = 30
	}
	if c.GOP <= 0 {
		c.GOP = 12
	}
	if c.MeanIBytes <= 0 {
		c.MeanIBytes = 12000
	}
	if c.MeanPBytes <= 0 {
		c.MeanPBytes = 3000
	}
	if c.SizeSigma <= 0 {
		c.SizeSigma = 0.35
	}
	if c.SceneMean <= 0 {
		c.SceneMean = 4
	}
	if c.PacketBytes <= 0 {
		c.PacketBytes = 1460
	}
	return c
}

// GenerateVBR synthesizes a video stream trace of the given duration
// from host src to dst, deterministically from the seed.
func GenerateVBR(cfg VBRConfig, duration sim.Duration, seed int64, src, dst int) *trace.Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New()
	tr.Meta["generator"] = "vbr-video"

	frameInterval := sim.DurationOf(1 / cfg.FPS)
	sceneScale := 1.0
	sceneLeft := cfg.SceneMean * rng.ExpFloat64()
	frame := 0
	for t := sim.Time(0); t < sim.Time(duration); t = t.Add(frameInterval) {
		sceneLeft -= 1 / cfg.FPS
		if sceneLeft <= 0 {
			sceneLeft = cfg.SceneMean * rng.ExpFloat64()
			sceneScale = math.Exp(0.4 * rng.NormFloat64())
		}
		mean := cfg.MeanPBytes
		if frame%cfg.GOP == 0 {
			mean = cfg.MeanIBytes
		}
		size := mean * sceneScale * math.Exp(cfg.SizeSigma*rng.NormFloat64()-cfg.SizeSigma*cfg.SizeSigma/2)
		emitFrameBytes(tr, t, int(size), cfg.PacketBytes, src, dst)
		frame++
	}
	return tr
}

// emitFrameBytes packetizes one video frame: packets back to back at wire
// pace within the frame slot.
func emitFrameBytes(tr *trace.Trace, at sim.Time, bytes, pktPayload, src, dst int) {
	perPacket := sim.DurationOf(float64((pktPayload+58+8)*8) / ethernet.DefaultBitRate)
	for off := 0; bytes > 0; off++ {
		payload := pktPayload
		if bytes < payload {
			payload = bytes
		}
		bytes -= payload
		tr.Append(trace.Packet{
			Time:  at.Add(sim.Duration(off) * perPacket),
			Size:  uint16(payload + 58),
			Src:   trace.MustAddr(src),
			Dst:   trace.MustAddr(dst),
			Proto: ethernet.ProtoUDP,
			Flags: ethernet.FlagData,
		})
	}
}

// OnOffConfig shapes a heavy-tailed on/off source — the superposition
// model behind self-similar LAN traffic (Leland et al.), used as the
// self-similarity control in the comparison experiments.
type OnOffConfig struct {
	// RateBps is the on-period emission rate in bytes/s. Default 500 KB/s.
	RateBps float64
	// ParetoAlpha is the tail index of the on/off period distribution
	// (1 < α < 2 gives long-range dependence). Default 1.4.
	ParetoAlpha float64
	// MeanPeriod is the mean on (and off) duration in seconds. Default 0.5.
	MeanPeriod float64
	// PacketBytes is the packet payload. Default 1460.
	PacketBytes int
	// Sources is the number of superposed independent on/off sources.
	// Default 8.
	Sources int
}

func (c OnOffConfig) withDefaults() OnOffConfig {
	if c.RateBps <= 0 {
		c.RateBps = 500_000
	}
	if c.ParetoAlpha <= 1 {
		c.ParetoAlpha = 1.4
	}
	if c.MeanPeriod <= 0 {
		c.MeanPeriod = 0.5
	}
	if c.PacketBytes <= 0 {
		c.PacketBytes = 1460
	}
	if c.Sources <= 0 {
		c.Sources = 8
	}
	return c
}

// GenerateOnOff synthesizes superposed heavy-tailed on/off traffic.
func GenerateOnOff(cfg OnOffConfig, duration sim.Duration, seed int64) *trace.Trace {
	cfg = cfg.withDefaults()
	var pkts []trace.Packet
	for s := 0; s < cfg.Sources; s++ {
		rng := rand.New(rand.NewSource(seed + int64(s)*7919))
		pareto := func() float64 {
			// Pareto with mean MeanPeriod: xm = mean·(α−1)/α.
			xm := cfg.MeanPeriod * (cfg.ParetoAlpha - 1) / cfg.ParetoAlpha
			return xm / math.Pow(rng.Float64(), 1/cfg.ParetoAlpha)
		}
		perPacket := sim.DurationOf(float64(cfg.PacketBytes) / cfg.RateBps)
		t := sim.Time(0)
		on := rng.Intn(2) == 0
		for t < sim.Time(duration) {
			period := sim.DurationOf(pareto())
			if on {
				for pt := t; pt < t.Add(period) && pt < sim.Time(duration); pt = pt.Add(perPacket) {
					pkts = append(pkts, trace.Packet{
						Time: pt, Size: uint16(cfg.PacketBytes + 58),
						Src: uint16(s % 4), Dst: uint16((s + 1) % 4),
						Proto: ethernet.ProtoUDP, Flags: ethernet.FlagData,
					})
				}
			}
			t = t.Add(period)
			on = !on
		}
	}
	// Merge the per-source streams chronologically.
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time })
	tr := trace.FromPackets(pkts)
	tr.Meta["generator"] = "pareto-onoff"
	return tr
}
