// Package model implements the paper's §7.2 analytic traffic models: the
// power spectrum of a program's instantaneous average bandwidth is sparse
// and spiky, so truncating the implied Fourier series to its strongest
// spikes yields a small closed-form model x(t) = a₀ + Σₖ 2·Re(aₖ·e^{j2πfₖt})
// that approximates — and, as spikes are added, converges to — the
// measured bandwidth signal. The package also generates synthetic packet
// traces from a model, closing the loop: model → traffic.
package model

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"fxnet/internal/dsp"
	"fxnet/internal/ethernet"
	"fxnet/internal/sim"
	"fxnet/internal/stats"
	"fxnet/internal/trace"
)

// Component is one retained spectral spike: a complex Fourier-series
// coefficient at a positive frequency (its conjugate at −f is implicit,
// the signal being real).
type Component struct {
	Freq  float64
	Coeff complex128
}

// BandwidthModel is a truncated Fourier-series bandwidth model in KB/s.
type BandwidthModel struct {
	// DC is the mean bandwidth a₀.
	DC float64
	// Components are the retained spikes, strongest first.
	Components []Component
}

// FromSpectrum builds a model from the k strongest spikes of s (with the
// given minimum spike separation, which collapses leakage side lobes).
// Zero-padding in the periodogram attenuates coefficients by N/M; the
// model compensates so amplitudes refer to the original signal.
func FromSpectrum(s *dsp.Spectrum, k int, minSepHz float64) *BandwidthModel {
	if len(s.Coeff) == 0 {
		return &BandwidthModel{}
	}
	m := &BandwidthModel{DC: real(s.Coeff[0])}
	padded := (len(s.Power) - 1) * 2
	scale := complex(1, 0)
	if s.N > 0 && padded > s.N {
		scale = complex(float64(padded)/float64(s.N), 0)
	}
	for _, p := range s.Peaks(k, minSepHz) {
		m.Components = append(m.Components, Component{Freq: p.Freq, Coeff: p.Coeff * scale})
	}
	sort.Slice(m.Components, func(i, j int) bool {
		return cmplx.Abs(m.Components[i].Coeff) > cmplx.Abs(m.Components[j].Coeff)
	})
	return m
}

// Eval reconstructs the modeled bandwidth at time t seconds (equation 2
// of the paper, truncated to the retained spikes).
func (m *BandwidthModel) Eval(t float64) float64 {
	v := m.DC
	for _, c := range m.Components {
		v += 2 * real(c.Coeff*cmplx.Rect(1, 2*math.Pi*c.Freq*t))
	}
	return v
}

// Series evaluates the model at n uniform samples spaced dt seconds.
// Uniform spacing lets each component advance by a constant phasor
// rotation per sample instead of a sin/cos pair per (component, sample);
// the phasor is re-anchored to an exact evaluation every 512 samples, so
// the recurrence agrees with Eval to rounding error.
func (m *BandwidthModel) Series(n int, dt float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.DC
	}
	for _, c := range m.Components {
		w := 2 * math.Pi * c.Freq
		step := cmplx.Rect(1, w*dt)
		var z complex128
		for i := range out {
			if i&511 == 0 {
				z = c.Coeff * cmplx.Rect(1, w*float64(i)*dt)
			}
			out[i] += 2 * real(z)
			z *= step
		}
	}
	return out
}

// String summarizes the model.
func (m *BandwidthModel) String() string {
	s := fmt.Sprintf("dc=%.1fKB/s", m.DC)
	for _, c := range m.Components {
		s += fmt.Sprintf(" +%.1f@%.3gHz", 2*cmplx.Abs(c.Coeff), c.Freq)
	}
	return s
}

// FitMetrics quantify how well a model matches the measured series.
type FitMetrics struct {
	// NRMSE is the range-normalized RMS error of the reconstruction.
	NRMSE float64
	// Correlation is the Pearson correlation of model and measurement.
	Correlation float64
	// EnergyFraction is the share of non-DC spectral power the retained
	// spikes capture.
	EnergyFraction float64
}

// Fit builds a k-spike model from a measured bandwidth series and reports
// the fit quality against that same series.
func Fit(series []float64, dt float64, k int, minSepHz float64) (*BandwidthModel, FitMetrics) {
	spec := dsp.Periodogram(series, dt, dsp.PeriodogramOptions{RemoveMean: true, PadPow2: true})
	m := FromSpectrum(spec, k, minSepHz)
	recon := m.Series(len(series), dt)
	var peakPower float64
	for _, c := range m.Components {
		// Undo the pad compensation to compare against spectrum power.
		padded := (len(spec.Power) - 1) * 2
		scale := 1.0
		if spec.N > 0 && padded > spec.N {
			scale = float64(spec.N) / float64(padded)
		}
		a := cmplx.Abs(c.Coeff) * scale * float64(padded)
		peakPower += a * a
	}
	tot := spec.TotalPower()
	met := FitMetrics{
		NRMSE:       stats.NRMSE(series, recon),
		Correlation: stats.PearsonR(series, recon),
	}
	if tot > 0 {
		met.EnergyFraction = math.Min(1, peakPower/tot)
	}
	return m, met
}

// GenerateTrace synthesizes a packet trace whose binned bandwidth
// approximates the model: for each bin of width bin, the modeled byte
// budget is emitted as pktSize-byte packets spaced evenly through the
// bin (fractional bytes carry over). Negative model excursions emit
// nothing. The packets flow src→dst as TCP data; it returns an error if
// either endpoint is outside the trace address space.
func (m *BandwidthModel) GenerateTrace(duration sim.Duration, bin sim.Duration, pktSize int, src, dst int) (*trace.Trace, error) {
	if pktSize <= 0 {
		panic("model: nonpositive packet size")
	}
	srcAddr, err := trace.Addr(src)
	if err != nil {
		return nil, err
	}
	dstAddr, err := trace.Addr(dst)
	if err != nil {
		return nil, err
	}
	tr := trace.New()
	tr.Meta["generator"] = "spectral-model"
	nBins := int(duration / bin)
	carry := 0.0
	for b := 0; b < nBins; b++ {
		t0 := sim.Time(b) * sim.Time(bin)
		kbps := m.Eval(t0.Seconds())
		if kbps < 0 {
			kbps = 0
		}
		bytes := kbps*1000*bin.Seconds() + carry
		n := int(bytes / float64(pktSize))
		carry = bytes - float64(n*pktSize)
		for i := 0; i < n; i++ {
			off := sim.Duration(float64(bin) * (float64(i) + 0.5) / float64(n))
			tr.Append(trace.Packet{
				Time: t0.Add(off), Size: uint16(pktSize),
				Src: srcAddr, Dst: dstAddr,
				Proto: ethernet.ProtoTCP, Flags: ethernet.FlagData,
			})
		}
	}
	return tr, nil
}
