package airshed

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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

// transposeShapes are the teams the transposes are held to the legacy
// ones on: P = 1 to 5 on a grid and layer count no P > 1 divides, and
// TestDistributedMatchesLegacy's idle-rank shape (Layers < P and
// Grid < P).
var transposeShapes = []struct {
	P int
	p Params
}{
	{1, unevenParams}, {2, unevenParams}, {3, unevenParams}, {4, unevenParams}, {5, unevenParams},
	{4, Params{Layers: 2, Species: 5, Grid: 3, Steps: 1, Hours: 2, Band: 1}},
}

var unevenParams = Params{Layers: 4, Species: 7, Grid: 50, Steps: 2, Hours: 2, Band: 4}

// teamStates builds every rank's state of a team of P.
func teamStates(P int, p Params) []*state {
	sts := make([]*state, P)
	for r := range sts {
		llo, lhi := fx.BlockRange(p.Layers, P, r)
		glo, ghi := fx.BlockRange(p.Grid, P, r)
		sts[r] = newState(p, llo, lhi-llo, ghi-glo)
	}
	return sts
}

// route is the all-to-all among a team's sent parts: rank r receives
// sent[q][r] from every rank q, its own part included.
func route(sent [][][]byte, r int) [][]byte {
	got := make([][]byte, len(sent))
	for q := range sent {
		got[q] = sent[q][r]
	}
	return got
}

// TestTransposePartsMatchLegacy holds the split transposes to the legacy
// ones: every part packForward and packReverse write is byte-identical
// to the legacy part, what the unpacks fill is bit-identical to the
// legacy array, and forward then reverse gives the block back.
func TestTransposePartsMatchLegacy(t *testing.T) {
	for _, tc := range transposeShapes {
		P, name := tc.P, fmt.Sprintf("P=%d %+v", tc.P, tc.p)
		sts, legacy := teamStates(P, tc.p), teamStates(P, tc.p)
		fwd, rev := make([][][]byte, P), make([][][]byte, P)
		orig := make([][]float32, P)
		for r, st := range sts {
			orig[r] = slices.Clone(st.block)
			fwd[r], rev[r] = st.parts(P)
			st.packForward(fwd[r])
		}
		// exchange checks legacy rank r's parts against the split pack's
		// and hands it what the split rank receives.
		exchange := func(dir string, sent [][][]byte, r int) func([][]byte) [][]byte {
			return func(parts [][]byte) [][]byte {
				for q, part := range parts {
					if !bytes.Equal(sent[r][q], part) {
						t.Fatalf("%s %s: rank %d's part for rank %d differs from the legacy part", name, dir, r, q)
					}
				}
				return route(sent, r)
			}
		}
		for r, st := range sts {
			legacy[r].legacyTransposeForward(P, exchange("forward", fwd, r))
			st.unpackForward(route(fwd, r))
			sameFloats(t, fmt.Sprintf("%s rank %d points", name, r), st.points, legacy[r].points)
			st.packReverse(rev[r])
		}
		for r, st := range sts {
			clear(st.block)
			legacy[r].legacyTransposeReverse(P, exchange("reverse", rev, r))
			st.unpackReverse(route(rev, r))
			sameFloats(t, fmt.Sprintf("%s rank %d block", name, r), st.block, legacy[r].block)
			sameFloats(t, fmt.Sprintf("%s rank %d round trip", name, r), st.block, orig[r])
		}
	}
}

// sameFloats fails the test at the first element of got that is not
// bit-equal to want.
func sameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, v := range want {
		if math.Float32bits(got[i]) != math.Float32bits(v) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], v)
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
	fwd, rev := st.parts(1)
	if n := testing.AllocsPerRun(3, func() {
		st.packForward(fwd)
		st.unpackForward(fwd)
		st.packReverse(rev)
		st.unpackReverse(rev)
	}); n != 0 {
		t.Errorf("one step's transpose halves allocate %v", n)
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

// BenchmarkTranspose_4x35x1024 is one step's two transposes at the
// paper's dimensions on P = 4, without the wire: every rank packs its
// forward parts, unpacks what it receives, packs the reverse parts and
// unpacks those.
func BenchmarkTranspose_4x35x1024(b *testing.B) {
	const P = 4
	sts := teamStates(P, PaperParams())
	fwd, rev := make([][][]byte, P), make([][][]byte, P)
	for r, st := range sts {
		fwd[r], rev[r] = st.parts(P)
	}
	// The parts are reused, so what each rank receives is fixed.
	gotFwd, gotRev := make([][][]byte, P), make([][][]byte, P)
	for r := range sts {
		gotFwd[r], gotRev[r] = route(fwd, r), route(rev, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r, st := range sts {
			st.packForward(fwd[r])
		}
		for r, st := range sts {
			st.unpackForward(gotFwd[r])
			st.packReverse(rev[r])
		}
		for r, st := range sts {
			st.unpackReverse(gotRev[r])
		}
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
