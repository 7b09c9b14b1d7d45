package airshed

import (
	"fmt"
	"math"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/fx"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
)

func smallParams() Params {
	return Params{Layers: 4, Species: 5, Grid: 64, Steps: 2, Hours: 2, Band: 4}
}

func runDistributed(t *testing.T, P int, p Params) ([][][][]float32, *trace.Trace) {
	t.Helper()
	return runDistributedCost(t, P, p, fx.CostModel{DefaultRate: 1e12})
}

// runDistributedCost runs Run on P ranks over a shared segment under the
// cost model and returns each rank's final layers and the captured trace.
func runDistributedCost(t *testing.T, P int, p Params, cost fx.CostModel) ([][][][]float32, *trace.Trace) {
	t.Helper()
	k := sim.New(1)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	var hosts []*netstack.Host
	for i := 0; i < P; i++ {
		st := seg.Attach(fmt.Sprintf("h%d", i))
		hosts = append(hosts, netstack.NewHost(k, st, st.Name(), netstack.DefaultConfig()))
	}
	col := trace.Capture(seg)
	m := pvm.NewMachine(k, hosts, pvm.Config{})
	got := make([][][][]float32, P)
	team := fx.Launch(m, P, cost, "airshed", func(w *fx.Worker) {
		got[w.Rank] = Run(w, p)
	})
	k.Run()
	if !team.Done() {
		t.Fatal("airshed deadlocked")
	}
	return got, col.Trace()
}

func TestPaperParams(t *testing.T) {
	p := PaperParams()
	if p.Layers != 4 || p.Species != 35 || p.Grid != 1024 || p.Steps != 5 || p.Hours != 100 {
		t.Errorf("PaperParams = %+v", p)
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	p := smallParams()
	want := Sequential(p)
	const P = 4
	got, _ := runDistributed(t, P, p)
	for r := 0; r < P; r++ {
		llo, lhi := fx.BlockRange(p.Layers, P, r)
		if len(got[r]) != lhi-llo {
			t.Fatalf("rank %d owns %d layers", r, len(got[r]))
		}
		for li := llo; li < lhi; li++ {
			for si := 0; si < p.Species; si++ {
				for g := 0; g < p.Grid; g++ {
					a, b := got[r][li-llo][si][g], want[li][si][g]
					if a != b {
						t.Fatalf("mismatch at layer %d species %d grid %d: %v vs %v", li, si, g, a, b)
					}
				}
			}
		}
	}
}

func TestDistributedMatchesSequentialP2(t *testing.T) {
	// Two ranks own two layers each: the transpose paths differ from P=4.
	p := smallParams()
	want := Sequential(p)
	got, _ := runDistributed(t, 2, p)
	for r := 0; r < 2; r++ {
		llo, lhi := fx.BlockRange(p.Layers, 2, r)
		for li := llo; li < lhi; li++ {
			for si := 0; si < p.Species; si++ {
				for g := 0; g < p.Grid; g++ {
					if got[r][li-llo][si][g] != want[li][si][g] {
						t.Fatalf("P=2 mismatch at (%d,%d,%d)", li, si, g)
					}
				}
			}
		}
	}
}

func TestConcentrationsStayFinite(t *testing.T) {
	p := smallParams()
	p.Hours = 5
	out := Sequential(p)
	for li := range out {
		for si := range out[li] {
			for g, v := range out[li][si] {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("non-finite at (%d,%d,%d)", li, si, g)
				}
				if v < -10 || v > 10 {
					t.Fatalf("implausible concentration %v at (%d,%d,%d)", v, li, si, g)
				}
			}
		}
	}
}

func TestChemistryConservesShape(t *testing.T) {
	// Pure decay plus diffusion: total mass must not increase.
	p := smallParams()
	y := column(0, p)
	var before, after float64
	for _, v := range y {
		before += float64(v)
	}
	newHeun(p).point(y)
	for _, v := range y {
		after += float64(v)
	}
	if after > before {
		t.Errorf("mass increased: %v → %v", before, after)
	}
	if after <= 0 || after < before*0.5 {
		t.Errorf("mass collapsed: %v → %v", before, after)
	}
}

// column is grid point g's initial l×s column, indexed [layer][species].
func column(g int, p Params) []float32 {
	y := make([]float32, p.Layers*p.Species)
	for li := 0; li < p.Layers; li++ {
		for si := 0; si < p.Species; si++ {
			y[li*p.Species+si] = initConc(li, si, g, p)
		}
	}
	return y
}

func TestStiffnessDiagonallyDominant(t *testing.T) {
	p := PaperParams()
	p.Grid = 128
	for _, hour := range []int{0, 13, 99} {
		for layer := 0; layer < p.Layers; layer++ {
			b, ops := stiffness(layer, hour, p)
			if ops <= 0 {
				t.Fatal("no assembly ops reported")
			}
			for i := 0; i < b.N; i++ {
				var off float64
				for j := max(0, i-b.Band); j <= min(b.N-1, i+b.Band); j++ {
					if j != i {
						off += math.Abs(b.At(i, j))
					}
				}
				if b.At(i, i) <= off {
					t.Fatalf("row %d not diagonally dominant (hour %d layer %d)", i, hour, layer)
				}
			}
		}
	}
}

// TestTransposeRoundTrip runs the two transposes over the wire: forward
// gives every point its column, and reverse restores the by-layer block.
func TestTransposeRoundTrip(t *testing.T) {
	p := smallParams()
	p.Steps = 0 // no simulation; we call the transposes directly
	const P = 4
	k := sim.New(1)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	var hosts []*netstack.Host
	for i := 0; i < P; i++ {
		st := seg.Attach(fmt.Sprintf("h%d", i))
		hosts = append(hosts, netstack.NewHost(k, st, st.Name(), netstack.DefaultConfig()))
	}
	m := pvm.NewMachine(k, hosts, pvm.Config{})
	ok := make([]bool, P)
	fx.Launch(m, P, fx.CostModel{DefaultRate: 1e12}, "tp", func(w *fx.Worker) {
		llo, lhi := fx.BlockRange(p.Layers, P, w.Rank)
		glo, ghi := fx.BlockRange(p.Grid, P, w.Rank)
		st := newState(p, llo, lhi-llo, ghi-glo)
		orig := append([]float32(nil), st.block...)
		fwd, rev := st.parts(P)
		st.packForward(fwd)
		st.unpackForward(w.AllToAll(1000, fwd))
		// Verify the by-grid view holds the right elements.
		for g := 0; g < ghi-glo; g++ {
			want := column(glo+g, p)
			for i, v := range st.points[g*len(want) : (g+1)*len(want)] {
				if v != want[i] {
					panic("forward transpose wrong")
				}
			}
		}
		clear(st.block)
		st.packReverse(rev)
		st.unpackReverse(w.AllToAll(2000, rev))
		for i, v := range st.block {
			if v != orig[i] {
				panic("round trip corrupted block")
			}
		}
		ok[w.Rank] = true
	})
	k.Run()
	for r, v := range ok {
		if !v {
			t.Fatalf("rank %d did not finish", r)
		}
	}
}

func TestTrafficIsAllToAllOnly(t *testing.T) {
	p := smallParams()
	const P = 4
	_, tr := runDistributed(t, P, p)
	if tr.Len() == 0 {
		t.Fatal("no traffic captured")
	}
	// Every ordered pair of the 4 hosts must carry traffic (all-to-all),
	// and transposes dominate: per hour, 2 transposes × steps.
	pairs := map[[2]int]bool{}
	for _, pk := range tr.Packets {
		pairs[[2]int{int(pk.Src), int(pk.Dst)}] = true
	}
	for s := 0; s < P; s++ {
		for d := 0; d < P; d++ {
			if s == d {
				continue
			}
			if !pairs[[2]int{s, d}] {
				t.Errorf("no traffic on connection %d→%d", s, d)
			}
		}
	}
}

func TestMessageSizeMatchesFormula(t *testing.T) {
	// The transpose part for each peer carries l/P × s × p/P float32
	// values (for divisible dimensions).
	p := Params{Layers: 4, Species: 8, Grid: 64, Steps: 1, Hours: 1, Band: 4}
	const P = 4
	_, tr := runDistributed(t, P, p)
	wantBody := (p.Layers / P) * p.Species * (p.Grid / P) * 4
	// Look for TCP data packets whose payload matches the message size
	// (+ PVM header 20 + length prefix 4 + IP/TCP 40 + Ethernet 18).
	wantFrame := wantBody + 24 + 40 + 18
	found := 0
	for _, pk := range tr.Packets {
		if int(pk.Size) == wantFrame {
			found++
		}
	}
	if found == 0 {
		t.Errorf("no frames of expected transpose size %d found", wantFrame)
	}
}

// TestChemistryColumnMass is an oracle on the integrator, not a digest:
// vertical diffusion only moves mass between layers, so a species' column
// sum sees pure decay, and four Heun substeps of y' = −d·y multiply it by
// (1 − h·d + (h·d)²/2)⁴ exactly. A corrector that reads anything but the
// predicted state of the neighbouring layers breaks this at 1e-3.
func TestChemistryColumnMass(t *testing.T) {
	p := PaperParams()
	h := newHeun(p)
	dt := float64(chemDT)
	var worst float64
	for k := 0; k < 16; k++ {
		y := column(k*p.Grid/16, p)
		before := make([]float64, p.Species)
		for i, v := range y {
			before[i%p.Species] += float64(v)
		}
		h.point(y)
		after := make([]float64, p.Species)
		for i, v := range y {
			after[i%p.Species] += float64(v)
		}
		for si := range after {
			hd := dt * float64(h.decay[si])
			want := before[si] * math.Pow(1-hd+hd*hd/2, chemSubsteps)
			worst = math.Max(worst, math.Abs(after[si]-want)/want)
		}
	}
	t.Logf("worst relative column-mass error %.2g", worst)
	if worst > 1e-6 {
		t.Errorf("column mass off by %.2g relative (want ≤ 1e-6)", worst)
	}
}
