package dsp

import (
	"math"
	"math/cmplx"
	"sort"
)

// Spectrum is a one-sided power spectrum of a uniformly sampled signal,
// together with the complex Fourier coefficients needed to reconstruct the
// signal (equation 2 of the paper).
type Spectrum struct {
	// Freq[i] is the frequency of bin i in Hz, from 0 (DC) upward.
	Freq []float64
	// Power[i] = |X[i]|², the paper's (N·KB/s)² units when the input is a
	// KB/s bandwidth series.
	Power []float64
	// Coeff[i] = X[i]/N, the complex Fourier-series coefficient a_i.
	Coeff []complex128
	// DF is the frequency resolution (Hz per bin).
	DF float64
	// N is the number of input samples before padding.
	N int
	// DT is the sample spacing in seconds.
	DT float64
}

// PeriodogramOptions control Periodogram.
type PeriodogramOptions struct {
	// RemoveMean subtracts the sample mean first, suppressing the DC spike
	// so that low-frequency structure is visible. The removed mean is
	// still reported as the DC coefficient so reconstruction works.
	RemoveMean bool
	// PadPow2 zero-pads the signal to the next power of two, which both
	// speeds the FFT and interpolates the spectrum.
	PadPow2 bool
}

// Periodogram computes the one-sided power spectrum of x sampled every dt
// seconds. This mirrors the paper's analysis: the input is the 10 ms-binned
// instantaneous average bandwidth, and the result is the periodogram whose
// spikes characterize the program's periodicity.
//
// Each call allocates a fresh Spectrum; analyses that compute spectra in
// a loop (sliding windows, farm sweeps) should reuse a Workspace instead.
func Periodogram(x []float64, dt float64, opt PeriodogramOptions) *Spectrum {
	var ws Workspace
	return ws.Periodogram(x, dt, opt)
}

// Workspace owns the scratch and output buffers of a periodogram. The
// zero value is ready to use; buffers grow to the largest size seen and
// are reused, so repeated same-size spectra allocate nothing. The
// *Spectrum returned by Workspace.Periodogram aliases the workspace and
// is overwritten by the next call.
type Workspace struct {
	work []float64 // mean-removed, zero-padded input
	xbuf []complex128
	spec Spectrum
}

// Periodogram is the scratch-reusing form of the package-level function.
func (ws *Workspace) Periodogram(x []float64, dt float64, opt PeriodogramOptions) *Spectrum {
	n := len(x)
	s := &ws.spec
	if n == 0 || dt <= 0 {
		*s = Spectrum{DT: dt}
		return s
	}
	mean := 0.0
	if opt.RemoveMean {
		for _, v := range x {
			mean += v
		}
		mean /= float64(n)
	}
	m := n
	if opt.PadPow2 {
		m = NextPow2(n)
	}
	ws.work = growF(ws.work, m)
	work := ws.work
	for i, v := range x {
		work[i] = v - mean
	}
	for i := n; i < m; i++ {
		work[i] = 0
	}
	ws.xbuf = growC(ws.xbuf, m)
	X := ws.xbuf
	fftRealInto(X, work)
	half := m/2 + 1
	s.Freq = growF(s.Freq, half)
	s.Power = growF(s.Power, half)
	s.Coeff = growC(s.Coeff, half)
	s.DF = 1 / (float64(m) * dt)
	s.N = n
	s.DT = dt
	for i := 0; i < half; i++ {
		s.Freq[i] = float64(i) * s.DF
		s.Power[i] = real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		s.Coeff[i] = X[i] / complex(float64(m), 0)
	}
	// Restore the removed mean as the DC coefficient.
	s.Coeff[0] += complex(mean, 0)
	s.Power[0] = cmplx.Abs(s.Coeff[0]*complex(float64(m), 0)) * cmplx.Abs(s.Coeff[0]*complex(float64(m), 0))
	return s
}

// growF returns s resized to length n, reusing its backing array when
// large enough.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growC is growF for complex slices.
func growC(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}

// Peak is a spectral spike: a local maximum of the power spectrum.
type Peak struct {
	Bin   int
	Freq  float64
	Power float64
	Coeff complex128
}

// Peaks returns the k strongest local maxima above DC, strongest first.
// A bin is a local maximum if its power exceeds both neighbors'. Peaks
// closer than minSepHz to an already-selected stronger peak are skipped,
// which collapses spectral leakage side lobes into their parent spike.
func (s *Spectrum) Peaks(k int, minSepHz float64) []Peak {
	type cand struct {
		bin int
		pow float64
	}
	var cands []cand
	for i := 1; i < len(s.Power)-1; i++ {
		if s.Power[i] > s.Power[i-1] && s.Power[i] >= s.Power[i+1] {
			cands = append(cands, cand{i, s.Power[i]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].pow != cands[b].pow {
			return cands[a].pow > cands[b].pow
		}
		return cands[a].bin < cands[b].bin
	})
	var peaks []Peak
	for _, c := range cands {
		if len(peaks) == k {
			break
		}
		tooClose := false
		for _, p := range peaks {
			if math.Abs(s.Freq[c.bin]-p.Freq) < minSepHz {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		peaks = append(peaks, Peak{Bin: c.bin, Freq: s.Freq[c.bin], Power: c.pow, Coeff: s.Coeff[c.bin]})
	}
	return peaks
}

// DominantFreq returns the frequency of the strongest non-DC spike, or 0
// if the spectrum has no interior local maximum.
func (s *Spectrum) DominantFreq() float64 {
	p := s.Peaks(1, 0)
	if len(p) == 0 {
		return 0
	}
	return p[0].Freq
}

// TotalPower returns the sum of Power over all non-DC bins.
func (s *Spectrum) TotalPower() float64 {
	var sum float64
	for i := 1; i < len(s.Power); i++ {
		sum += s.Power[i]
	}
	return sum
}

// Slice returns frequencies and powers restricted to [0, maxHz], the form
// the paper plots (e.g. figure 11's 0–0.1, 0–1 and 0–20 Hz views).
func (s *Spectrum) Slice(maxHz float64) (freq, power []float64) {
	for i, f := range s.Freq {
		if f > maxHz {
			break
		}
		freq = append(freq, f)
		power = append(power, s.Power[i])
	}
	return freq, power
}
