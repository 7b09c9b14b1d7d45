package dsp

import (
	"math"
	"testing"
)

// sine builds n samples of amp·sin(2πf·t)+offset at spacing dt.
func sine(n int, dt, f, amp, offset float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = offset + amp*math.Sin(2*math.Pi*f*float64(i)*dt)
	}
	return x
}

func TestPeriodogramFindsTone(t *testing.T) {
	// 5 Hz tone sampled at 100 Hz (10 ms bins, like the paper).
	dt := 0.01
	x := sine(4096, dt, 5, 1, 0)
	s := Periodogram(x, dt, PeriodogramOptions{})
	got := s.DominantFreq()
	if math.Abs(got-5) > 2*s.DF {
		t.Errorf("dominant = %v Hz, want 5 (df=%v)", got, s.DF)
	}
}

func TestPeriodogramRemoveMeanKeepsDCCoeff(t *testing.T) {
	dt := 0.01
	x := sine(2048, dt, 2, 1, 10)
	s := Periodogram(x, dt, PeriodogramOptions{RemoveMean: true})
	if math.Abs(real(s.Coeff[0])-10) > 0.01 {
		t.Errorf("DC coeff = %v, want ≈10", s.Coeff[0])
	}
	if got := s.DominantFreq(); math.Abs(got-2) > 2*s.DF {
		t.Errorf("dominant = %v, want 2", got)
	}
}

func TestPeriodogramPadPow2(t *testing.T) {
	dt := 0.01
	x := sine(1000, dt, 5, 1, 0)
	s := Periodogram(x, dt, PeriodogramOptions{PadPow2: true})
	if len(s.Power) != 1024/2+1 {
		t.Errorf("bins = %d, want 513", len(s.Power))
	}
	if math.Abs(s.DominantFreq()-5) > 3*s.DF {
		t.Errorf("dominant = %v", s.DominantFreq())
	}
}

func TestPeriodogramEmpty(t *testing.T) {
	s := Periodogram(nil, 0.01, PeriodogramOptions{})
	if len(s.Power) != 0 || s.DominantFreq() != 0 {
		t.Errorf("empty spectrum = %+v", s)
	}
}

func TestPeaksOrderingAndSeparation(t *testing.T) {
	dt := 0.01
	n := 8192
	x := make([]float64, n)
	for i := range x {
		ts := float64(i) * dt
		x[i] = 3*math.Sin(2*math.Pi*5*ts) + 1*math.Sin(2*math.Pi*12*ts) + 0.5*math.Sin(2*math.Pi*20*ts)
	}
	s := Periodogram(x, dt, PeriodogramOptions{})
	peaks := s.Peaks(3, 1.0)
	if len(peaks) != 3 {
		t.Fatalf("got %d peaks", len(peaks))
	}
	wants := []float64{5, 12, 20}
	for i, w := range wants {
		if math.Abs(peaks[i].Freq-w) > 3*s.DF {
			t.Errorf("peak %d at %v Hz, want %v", i, peaks[i].Freq, w)
		}
	}
	if !(peaks[0].Power > peaks[1].Power && peaks[1].Power > peaks[2].Power) {
		t.Error("peaks not in descending power order")
	}
}

func TestPeaksMinSeparationCollapsesLeakage(t *testing.T) {
	// A tone that falls between bins leaks into neighbors; with a minimum
	// separation those side bins must not appear as separate peaks.
	dt := 0.01
	x := sine(1000, dt, 5.03, 1, 0) // non-integer number of cycles
	s := Periodogram(x, dt, PeriodogramOptions{PadPow2: true})
	peaks := s.Peaks(5, 2.0)
	for i := 1; i < len(peaks); i++ {
		if math.Abs(peaks[i].Freq-peaks[0].Freq) < 2.0 {
			t.Errorf("leakage peak at %v too close to %v", peaks[i].Freq, peaks[0].Freq)
		}
	}
}

func TestHarmonicSeries(t *testing.T) {
	// A periodic pulse train has spikes at the fundamental and harmonics —
	// the structure the paper reports for SEQ and HIST.
	dt := 0.01
	n := 4096
	x := make([]float64, n)
	period := 25 // 4 Hz at 10 ms bins
	for i := range x {
		if i%period == 0 {
			x[i] = 100
		}
	}
	s := Periodogram(x, dt, PeriodogramOptions{RemoveMean: true})
	peaks := s.Peaks(4, 1.0)
	if len(peaks) < 3 {
		t.Fatalf("too few peaks: %d", len(peaks))
	}
	// Every strong peak should sit near a multiple of 4 Hz.
	for _, p := range peaks {
		mult := math.Round(p.Freq / 4)
		if mult < 1 || math.Abs(p.Freq-4*mult) > 3*s.DF {
			t.Errorf("peak at %v Hz not a 4 Hz harmonic", p.Freq)
		}
	}
}

// bandPower sums Power over the non-DC bins with lo ≤ Freq < hi.
func bandPower(s *Spectrum, lo, hi float64) float64 {
	var sum float64
	for i := 1; i < len(s.Power); i++ {
		if s.Freq[i] >= lo && s.Freq[i] < hi {
			sum += s.Power[i]
		}
	}
	return sum
}

func TestBandAndTotalPower(t *testing.T) {
	dt := 0.01
	x := sine(4096, dt, 5, 1, 0)
	s := Periodogram(x, dt, PeriodogramOptions{})
	tot := s.TotalPower()
	band := bandPower(s, 4, 6)
	if band <= 0 || tot <= 0 {
		t.Fatal("nonpositive power")
	}
	if band/tot < 0.95 {
		t.Errorf("band fraction = %v, want ≥0.95", band/tot)
	}
	if out := bandPower(s, 20, 30); out/tot > 0.01 {
		t.Errorf("out-of-band fraction = %v", out/tot)
	}
}

func TestSlice(t *testing.T) {
	dt := 0.01
	x := sine(1024, dt, 5, 1, 0)
	s := Periodogram(x, dt, PeriodogramOptions{})
	freq, power := s.Slice(10)
	if len(freq) != len(power) || len(freq) == 0 {
		t.Fatal("bad slice")
	}
	if freq[len(freq)-1] > 10 {
		t.Errorf("slice exceeds 10 Hz: %v", freq[len(freq)-1])
	}
	// 10 Hz of a 50 Hz-wide spectrum ≈ one fifth of the bins.
	if got, want := len(freq), len(s.Freq)/5; got < want-2 || got > want+2 {
		t.Errorf("slice bins = %d, want ≈%d", got, want)
	}
}
