package airshed

import (
	"fmt"
	"math"
	"testing"

	"fxnet/internal/fx"
	"fxnet/internal/linalg"
)

// sameBits fails the test at the first element of got that is not
// bit-equal to want.
func sameBits(t *testing.T, what string, got, want [][][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d layers, want %d", what, len(got), len(want))
	}
	for li := range want {
		if len(got[li]) != len(want[li]) {
			t.Fatalf("%s: layer %d has %d species, want %d", what, li, len(got[li]), len(want[li]))
		}
		for si := range want[li] {
			if len(got[li][si]) != len(want[li][si]) {
				t.Fatalf("%s: row (%d,%d) has %d points, want %d", what, li, si, len(got[li][si]), len(want[li][si]))
			}
			for g, v := range want[li][si] {
				if math.Float32bits(got[li][si][g]) != math.Float32bits(v) {
					t.Fatalf("%s: (%d,%d,%d) = %v, want %v", what, li, si, g, got[li][si][g], v)
				}
			}
		}
	}
}

// kernelShapes are the dimensions the flat kernels are held to the legacy
// reference on: the small default, a paper-shaped one (35 species: eight
// batches of four and a tail of three; band 8), a single layer (no
// vertical neighbour), fewer species than one batch, and a species count
// one past a batch.
var kernelShapes = []Params{
	smallParams(),
	{Layers: 4, Species: 35, Grid: 128, Steps: 2, Hours: 2, Band: 8},
	{Layers: 1, Species: 6, Grid: 32, Steps: 2, Hours: 2, Band: 3},
	{Layers: 2, Species: 3, Grid: 16, Steps: 1, Hours: 1, Band: 0},
	{Layers: 3, Species: 9, Grid: 40, Steps: 2, Hours: 1, Band: 5},
}

func TestSequentialMatchesLegacy(t *testing.T) {
	for _, p := range kernelShapes {
		sameBits(t, fmt.Sprintf("%+v", p), Sequential(p), legacySequential(p))
	}
}

// TestDistributedMatchesLegacy covers what Sequential does not run: the
// wire transposes, on a grid and a layer count the ranks do not divide.
func TestDistributedMatchesLegacy(t *testing.T) {
	for _, tc := range []struct {
		P int
		p Params
	}{
		{3, Params{Layers: 4, Species: 7, Grid: 50, Steps: 2, Hours: 2, Band: 4}},
		{4, Params{Layers: 2, Species: 5, Grid: 3, Steps: 1, Hours: 2, Band: 1}}, // Layers < P and Grid < P: idle ranks
	} {
		want := legacySequential(tc.p)
		got, _ := runDistributed(t, tc.P, tc.p)
		for r := 0; r < tc.P; r++ {
			llo, lhi := fx.BlockRange(tc.p.Layers, tc.P, r)
			sameBits(t, fmt.Sprintf("P=%d rank %d %+v", tc.P, r, tc.p), got[r], want[llo:lhi])
		}
	}
}

// TestOpCountsMatchLegacy holds the one rule that keeps every digest:
// the op count of each phase — what Run hands to w.Compute or
// w.ComputeWith — is the legacy value exactly.
func TestOpCountsMatchLegacy(t *testing.T) {
	for _, p := range kernelShapes {
		st := newState(p, 0, p.Layers, p.Grid)
		// Zero hours: the legacy layout's initial block, nothing simulated.
		block := legacySequential(Params{Layers: p.Layers, Species: p.Species, Grid: p.Grid, Band: p.Band})
		for _, hour := range []int{0, 13} {
			lus, gotPre := st.factor(hour)
			var wantPre float64
			for li := range lus {
				a, aOps := legacyStiffness(li, hour, p)
				got, _ := stiffness(li, hour, p)
				for i, v := range a.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
						t.Fatalf("%+v: stiffness(%d,%d) differs at %d", p, li, hour, i)
					}
				}
				lu, err := linalg.FactorBanded(a)
				if err != nil {
					t.Fatal(err)
				}
				wantPre += aOps + float64(lu.FactorFlops)
			}
			if gotPre != wantPre {
				t.Errorf("%+v hour %d: factor ops %v, legacy %v", p, hour, gotPre, wantPre)
			}
			if got, want := st.transportOps(lus), legacyTransport(block, lus, p); got != want {
				t.Errorf("%+v hour %d: transport ops %v, legacy %v", p, hour, got, want)
			}
		}
		var wantChem float64
		y := make([][]float32, p.Layers)
		for li := range y {
			y[li] = make([]float32, p.Species)
		}
		for g := 0; g < p.Grid; g++ {
			wantChem += legacyChemPoint(y, p)
		}
		if got := st.chemOps(); got != wantChem {
			t.Errorf("%+v: chemistry ops %v, legacy %v", p, got, wantChem)
		}
	}
}

func TestKernelsAllocateNothing(t *testing.T) {
	p := Params{Layers: 4, Species: 35, Grid: 64, Steps: 1, Hours: 1, Band: 8}
	st := newState(p, 0, p.Layers, p.Grid)
	lus, _ := st.factor(0)
	y := column(0, p)
	if n := testing.AllocsPerRun(10, func() { st.chem.point(y) }); n != 0 {
		t.Errorf("one chemistry point allocates %v", n)
	}
	if n := testing.AllocsPerRun(3, func() { st.transport(lus) }); n != 0 {
		t.Errorf("one transport phase allocates %v", n)
	}
}

func TestParamsValidate(t *testing.T) {
	ok := []Params{{}, PaperParams(), smallParams(),
		{Layers: 1, Species: 1, Grid: 1, Steps: 1, Hours: 0, Band: 0}}
	for _, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v refused: %v", p, err)
		}
	}
	base := smallParams()
	bad := map[string]func(*Params){
		"Layers 0":     func(p *Params) { p.Layers = 0 },
		"Species -1":   func(p *Params) { p.Species = -1 },
		"Grid 0":       func(p *Params) { p.Grid = 0 },
		"Steps 0":      func(p *Params) { p.Steps = 0 },
		"Hours -1":     func(p *Params) { p.Hours = -1 },
		"Band -1":      func(p *Params) { p.Band = -1 },
		"Band == Grid": func(p *Params) { p.Band = p.Grid },
	}
	for name, mutate := range bad {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s (%+v) accepted", name, p)
		}
	}
}

func BenchmarkChemPoint_4x35(b *testing.B) {
	p := PaperParams()
	h := newHeun(p)
	y0 := column(0, p)
	y := make([]float32, len(y0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(y, y0)
		h.point(y)
	}
}

// BenchmarkAirshedHour is one simulated hour at the paper's dimensions
// with no network: 4 factors, 1400 backsolves, 5120 chemistry points.
func BenchmarkAirshedHour(b *testing.B) {
	p := PaperParams()
	p.Hours = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sequential(p)
	}
}
