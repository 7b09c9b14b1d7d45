package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	if !approx(s.Mean, 5, 1e-12) {
		t.Errorf("mean = %v", s.Mean)
	}
	if !approx(s.SD, 2, 1e-12) {
		t.Errorf("sd = %v", s.SD)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.SD != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Min != 3.5 || s.Max != 3.5 || s.Mean != 3.5 || s.SD != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !approx(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// interpolation
	if got := Quantile([]float64{0, 10}, 0.3); !approx(got, 3, 1e-12) {
		t.Errorf("interp quantile = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

// newHistogram bins xs into bins equal-width bins over [lo, hi), the
// shape the analysis package's streaming histogram fills.
func newHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		switch {
		case x < lo:
			h.Under++
		case x >= hi:
			h.Over++
		default:
			h.Counts[int((x-lo)/w)]++
		}
	}
	return h
}

func TestHistogram(t *testing.T) {
	xs := []float64{-1, 0, 0.5, 1, 1.5, 2, 9.99, 10, 11}
	h := newHistogram(xs, 0, 10, 10)
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under=%d over=%d", h.Under, h.Over)
	}
	if h.Total() != 6 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Counts[0] != 2 { // 0, 0.5
		t.Errorf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 2 { // 1, 1.5
		t.Errorf("bin1 = %d", h.Counts[1])
	}
}

func TestHistogramModesTrimodal(t *testing.T) {
	// Emulate a trimodal packet-size mix: many ACKs at 58, many full
	// segments at 1518, a cluster of remainders near 700.
	var xs []float64
	for i := 0; i < 500; i++ {
		xs = append(xs, 58)
	}
	for i := 0; i < 400; i++ {
		xs = append(xs, 1518)
	}
	for i := 0; i < 100; i++ {
		xs = append(xs, 700)
	}
	h := newHistogram(xs, 0, 1600, 32)
	modes := h.Modes(0.02)
	if len(modes) != 3 {
		t.Fatalf("modes = %v, want 3", modes)
	}
	// Largest mode first (the 58-byte bin, 50–100 B).
	if modes[0] != 1 {
		t.Errorf("dominant mode is bin %d, want 1 (near 58 B)", modes[0])
	}
}

func TestHistogramModesUnimodal(t *testing.T) {
	var xs []float64
	for i := 0; i < 1000; i++ {
		xs = append(xs, 500+float64(i%10))
	}
	h := newHistogram(xs, 0, 1600, 16)
	if modes := h.Modes(0.05); len(modes) != 1 {
		t.Errorf("modes = %v, want exactly 1", modes)
	}
	// A plateau is one mode, reported at its leftmost bin, wherever it
	// starts.
	for _, c := range []struct {
		counts []int
		want   []int
	}{
		{[]int{5, 5, 1}, []int{0}},
		{[]int{1, 5, 5, 1}, []int{1}},
	} {
		h := &Histogram{Lo: 0, Hi: float64(len(c.counts)), Counts: c.counts}
		if got := h.Modes(0); !slices.Equal(got, c.want) {
			t.Errorf("Modes of %v = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestRMSEAndNRMSE(t *testing.T) {
	a := []float64{0, 1, 2, 3}
	b := []float64{0, 1, 2, 3}
	if RMSE(a, b) != 0 {
		t.Error("RMSE of identical != 0")
	}
	c := []float64{1, 2, 3, 4}
	if !approx(RMSE(a, c), 1, 1e-12) {
		t.Errorf("RMSE = %v", RMSE(a, c))
	}
	if !approx(NRMSE(a, c), 1.0/3, 1e-12) {
		t.Errorf("NRMSE = %v", NRMSE(a, c))
	}
	if NRMSE([]float64{5, 5}, []float64{1, 9}) != 0 {
		t.Error("NRMSE of constant reference != 0")
	}
}

func TestPearsonR(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if !approx(PearsonR(a, b), 1, 1e-12) {
		t.Errorf("r = %v", PearsonR(a, b))
	}
	neg := []float64{10, 8, 6, 4, 2}
	if !approx(PearsonR(a, neg), -1, 1e-12) {
		t.Errorf("r = %v", PearsonR(a, neg))
	}
	if PearsonR(a, []float64{3, 3, 3, 3, 3}) != 0 {
		t.Error("r with constant != 0")
	}
}

func TestQuickSummaryInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
			// Keep magnitudes sane so the SD computation stays finite.
			if xs[i] > 1e12 {
				xs[i] = 1e12
			}
			if xs[i] < -1e12 {
				xs[i] = -1e12
			}
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Mean && s.Mean <= s.Max && s.SD >= 0 && s.SD <= s.Max-s.Min+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHistogramConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		h := newHistogram(xs, 100, 1000, 9)
		return h.Total()+h.Under+h.Over == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHurstWhiteNoise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x := make([]float64, 1<<14)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	h := HurstAggVar(x, nil)
	if h < 0.4 || h > 0.6 {
		t.Errorf("white noise H = %v, want ≈0.5", h)
	}
}

func TestHurstPersistentProcess(t *testing.T) {
	// A slowly varying random walk-ish process (heavily smoothed noise)
	// is strongly persistent: H near 1.
	r := rand.New(rand.NewSource(2))
	x := make([]float64, 1<<14)
	v := 0.0
	for i := range x {
		v = 0.999*v + r.NormFloat64()
		x[i] = v
	}
	h := HurstAggVar(x, nil)
	if h < 0.8 {
		t.Errorf("persistent process H = %v, want > 0.8", h)
	}
}

func TestHurstPeriodicSeries(t *testing.T) {
	// A fast periodic series (with a whisper of noise so aggregated
	// variances stay positive) cancels under aggregation: H ≈ 0 — the
	// regime of this paper's parallel-program traffic, the opposite of
	// self-similar media traffic.
	r := rand.New(rand.NewSource(3))
	x := make([]float64, 1<<12)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*float64(i)/8) + 1e-3*r.NormFloat64()
	}
	h := HurstAggVar(x, nil)
	if h > 0.2 {
		t.Errorf("periodic H = %v, want ≈0", h)
	}
}

func TestHurstDegenerateInputs(t *testing.T) {
	if h := HurstAggVar(nil, nil); h != 0.5 {
		t.Errorf("empty H = %v", h)
	}
	if h := HurstAggVar(make([]float64, 1000), nil); h != 0.5 {
		t.Errorf("constant H = %v", h)
	}
	if h := HurstAggVar([]float64{1, 2, 3}, nil); h != 0.5 {
		t.Errorf("short H = %v", h)
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]float64{10, 10, 10}); got != 0 {
		t.Errorf("constant CoV = %v", got)
	}
	if got := CoV([]float64{0, 0}); got != 0 {
		t.Errorf("zero-mean CoV = %v", got)
	}
	got := CoV([]float64{1, 3})
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CoV = %v, want 0.5", got)
	}
}
