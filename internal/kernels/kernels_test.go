package kernels

import (
	"fmt"
	"math"
	"testing"

	"fxnet/internal/dsp"
	"fxnet/internal/ethernet"
	"fxnet/internal/fx"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/sim"
)

// runTeam launches body on P workers over a simulated segment with a fast
// quiet cost model and runs to completion.
func runTeam(t *testing.T, P int, body func(w *fx.Worker)) {
	t.Helper()
	k := sim.New(1)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	var hosts []*netstack.Host
	for i := 0; i < P; i++ {
		st := seg.Attach(fmt.Sprintf("h%d", i))
		hosts = append(hosts, netstack.NewHost(k, st, st.Name(), netstack.DefaultConfig()))
	}
	m := pvm.NewMachine(k, hosts, pvm.Config{})
	cost := fx.CostModel{DefaultRate: 1e12} // compute time negligible in tests
	team := fx.Launch(m, P, cost, "kern", body)
	k.Run()
	if !team.Done() {
		t.Fatal("team did not finish (deadlock?)")
	}
}

func TestRegistry(t *testing.T) {
	if len(All) != 5 {
		t.Fatalf("registry has %d kernels", len(All))
	}
	wantPatterns := map[string]fx.Pattern{
		"sor": fx.Neighbor, "2dfft": fx.AllToAll, "t2dfft": fx.Partition,
		"seq": fx.Broadcast, "hist": fx.Tree,
	}
	for name, pat := range wantPatterns {
		s, ok := Lookup(name)
		if !ok {
			t.Errorf("Lookup(%q) failed", name)
			continue
		}
		if got := s.QoS(s.Params).Pattern; got != pat {
			t.Errorf("%s pattern = %v, want %v", name, got, pat)
		}
		if s.P != 4 {
			t.Errorf("%s P = %d", name, s.P)
		}
		if s.Run == nil || len(s.Rates) == 0 {
			t.Errorf("%s spec incomplete", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown kernel succeeded")
	}
	if got := Names(); len(got) != 5 || got[0] != "sor" {
		t.Errorf("Names = %v", got)
	}
}

func TestInitValueRange(t *testing.T) {
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			v := initValue(i, j, 64)
			if v < 0 || v >= 1 {
				t.Fatalf("initValue(%d,%d) = %v out of [0,1)", i, j, v)
			}
		}
	}
}

func TestSORMatchesSequential(t *testing.T) {
	p := Params{N: 32, Iters: 10}
	want := SORSequential(p)
	const P = 4
	got := make([][][]float32, P)
	runTeam(t, P, func(w *fx.Worker) {
		got[w.Rank] = SOR(w, p)
	})
	for r := 0; r < P; r++ {
		lo, hi := fx.BlockRange(p.N, P, r)
		if len(got[r]) != hi-lo {
			t.Fatalf("rank %d returned %d rows", r, len(got[r]))
		}
		for i := lo; i < hi; i++ {
			for j := 0; j < p.N; j++ {
				if got[r][i-lo][j] != want[i][j] {
					t.Fatalf("SOR mismatch at (%d,%d): %v vs %v", i, j, got[r][i-lo][j], want[i][j])
				}
			}
		}
	}
}

func TestSORUnevenDistribution(t *testing.T) {
	p := Params{N: 30, Iters: 5} // 30 rows over 4 ranks: 8,8,7,7
	want := SORSequential(p)
	const P = 4
	got := make([][][]float32, P)
	runTeam(t, P, func(w *fx.Worker) { got[w.Rank] = SOR(w, p) })
	for r := 0; r < P; r++ {
		lo, hi := fx.BlockRange(p.N, P, r)
		for i := lo; i < hi; i++ {
			for j := 0; j < p.N; j++ {
				if got[r][i-lo][j] != want[i][j] {
					t.Fatalf("mismatch at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestSORConvergesTowardSmooth(t *testing.T) {
	// Relaxation must reduce the discrete Laplacian residual over time.
	resid := func(m [][]float32) float64 {
		n := len(m)
		var s float64
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				d := float64(m[i-1][j] + m[i+1][j] + m[i][j-1] + m[i][j+1] - 4*m[i][j])
				s += d * d
			}
		}
		return math.Sqrt(s)
	}
	before := SORSequential(Params{N: 32, Iters: 0})
	after := SORSequential(Params{N: 32, Iters: 50})
	if resid(after) >= resid(before) {
		t.Errorf("residual did not decrease: %v → %v", resid(before), resid(after))
	}
}

func TestFFT2DMatchesSequential(t *testing.T) {
	p := Params{N: 16, Iters: 2}
	want := FFT2DSequential(p)
	const P = 4
	got := make([][][]complex64, P)
	runTeam(t, P, func(w *fx.Worker) { got[w.Rank] = FFT2D(w, p) })
	for r := 0; r < P; r++ {
		clo, chi := fx.BlockRange(p.N, P, r)
		if len(got[r]) != chi-clo {
			t.Fatalf("rank %d returned %d cols", r, len(got[r]))
		}
		for c := clo; c < chi; c++ {
			for i := 0; i < p.N; i++ {
				if got[r][c-clo][i] != want[c][i] {
					t.Fatalf("2DFFT mismatch at col %d row %d: %v vs %v", c, i, got[r][c-clo][i], want[c][i])
				}
			}
		}
	}
}

// A power-of-two row transforms in its widening scratch: the 2DFFT's
// row and column phases allocate nothing per row.
func TestFFTRowDoesNotAllocate(t *testing.T) {
	const n = 256
	row := initRows(0, 1, n)[0]
	tmp := make([]complex128, n)
	if allocs := testing.AllocsPerRun(20, func() { fftRow(row, tmp) }); allocs != 0 {
		t.Errorf("fftRow at N=%d: %.1f allocs per row, want 0", n, allocs)
	}
}

func TestFFT2DSequentialAgainstDSP(t *testing.T) {
	// The complex64-rounded kernel result must agree with the full
	// double-precision 2D FFT to single precision.
	p := Params{N: 8, Iters: 1}
	cols := FFT2DSequential(p)
	n := p.N
	flat := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			flat[i*n+j] = complex128(initComplex(i, j, n))
		}
	}
	want := fft2D(flat, n)
	for c := 0; c < n; c++ {
		for i := 0; i < n; i++ {
			diff := complex128(cols[c][i]) - want[i*n+c]
			if mag := math.Hypot(real(diff), imag(diff)); mag > 1e-3*float64(n) {
				t.Fatalf("col %d row %d: error %g", c, i, mag)
			}
		}
	}
}

func TestT2DFFTMatchesSequential(t *testing.T) {
	p := Params{N: 16, Iters: 3}
	const P = 4
	got := make([][][]complex64, P)
	runTeam(t, P, func(w *fx.Worker) { got[w.Rank] = T2DFFT(w, p) })
	for r := 0; r < P/2; r++ {
		if got[r] != nil {
			t.Errorf("sender rank %d returned data", r)
		}
	}
	want := T2DFFTSequential(p, p.Iters-1)
	for r := P / 2; r < P; r++ {
		q := r - P/2
		clo, chi := fx.BlockRange(p.N, P/2, q)
		if len(got[r]) != chi-clo {
			t.Fatalf("receiver %d returned %d cols", r, len(got[r]))
		}
		for c := clo; c < chi; c++ {
			for i := 0; i < p.N; i++ {
				if got[r][c-clo][i] != want[c][i] {
					t.Fatalf("T2DFFT mismatch at col %d row %d", c, i)
				}
			}
		}
	}
}

func TestT2DFFTOddPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for odd P")
		}
	}()
	w := &fx.Worker{Rank: 0, P: 3}
	T2DFFT(w, Params{N: 8, Iters: 1})
}

func TestSEQDistributesProducedData(t *testing.T) {
	p := Params{N: 16, Iters: 1}
	const P = 4
	got := make([][][]float64, P)
	runTeam(t, P, func(w *fx.Worker) { got[w.Rank] = SEQ(w, p) })
	for r := 0; r < P; r++ {
		lo, hi := fx.BlockRange(p.N, P, r)
		if len(got[r]) != hi-lo {
			t.Fatalf("rank %d block = %d rows", r, len(got[r]))
		}
		for i := lo; i < hi; i++ {
			for j := 0; j < p.N; j++ {
				if want := seqValue(i, j, p.N); got[r][i-lo][j] != want {
					t.Fatalf("SEQ mismatch at (%d,%d): %v vs %v", i, j, got[r][i-lo][j], want)
				}
			}
		}
	}
}

func TestHISTMatchesSequential(t *testing.T) {
	p := Params{N: 32, Iters: 3}
	want := HISTSequential(p)
	const P = 4
	got := make([][]int64, P)
	runTeam(t, P, func(w *fx.Worker) { got[w.Rank] = HIST(w, p) })
	var total int64
	for _, c := range want {
		total += c
	}
	if total != int64(p.N*p.N) {
		t.Fatalf("reference histogram sums to %d", total)
	}
	for r := 0; r < P; r++ {
		if len(got[r]) != HistBins {
			t.Fatalf("rank %d histogram has %d bins", r, len(got[r]))
		}
		for b := range want {
			if got[r][b] != want[b] {
				t.Fatalf("rank %d bin %d = %d, want %d", r, b, got[r][b], want[b])
			}
		}
	}
}

func TestHISTNonPowerOfTwoP(t *testing.T) {
	p := Params{N: 30, Iters: 2}
	want := HISTSequential(p)
	const P = 3
	got := make([][]int64, P)
	runTeam(t, P, func(w *fx.Worker) { got[w.Rank] = HIST(w, p) })
	for r := 0; r < P; r++ {
		for b := range want {
			if got[r][b] != want[b] {
				t.Fatalf("P=3 rank %d bin %d = %d, want %d", r, b, got[r][b], want[b])
			}
		}
	}
}

// fft2D is the double-precision 2-D DFT of an n×n row-major matrix —
// row transforms, then column transforms, through dsp.FFT — that the
// precision test holds the complex64 kernels to.
func fft2D(m []complex128, n int) []complex128 {
	out := make([]complex128, 0, n*n)
	for r := 0; r < n; r++ {
		out = append(out, dsp.FFT(m[r*n:(r+1)*n])...)
	}
	col := make([]complex128, n)
	for c := 0; c < n; c++ {
		for r := range col {
			col[r] = out[r*n+c]
		}
		for r, v := range dsp.FFT(col) {
			out[r*n+c] = v
		}
	}
	return out
}
