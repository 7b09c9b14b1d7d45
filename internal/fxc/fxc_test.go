package fxc

import (
	"testing"

	"fxnet/internal/fx"
)

func rowsArr(name string, n int) *Array {
	return &Array{Name: name, Rows: n, Cols: n, Dist: DistRows, ElemBytes: 4}
}

func TestOwner(t *testing.T) {
	a := rowsArr("a", 16)
	if a.Owner(4, 0, 15) != 0 || a.Owner(4, 4, 0) != 1 || a.Owner(4, 15, 7) != 3 {
		t.Error("row-block owner wrong")
	}
	c := &Array{Name: "c", Rows: 16, Cols: 16, Dist: DistCols, ElemBytes: 4}
	if c.Owner(4, 15, 0) != 0 || c.Owner(4, 0, 12) != 3 {
		t.Error("col-block owner wrong")
	}
	s := &Array{Name: "s", Rows: 4, Cols: 4, Dist: DistSerial, ElemBytes: 4}
	if s.Owner(4, 3, 3) != 0 {
		t.Error("serial owner wrong")
	}
}

func TestAffine(t *testing.T) {
	if I.At(5, 9) != 5 || J.At(5, 9) != 9 {
		t.Error("identity subscripts wrong")
	}
	if I.Shifted(-1).At(5, 9) != 4 {
		t.Error("shift wrong")
	}
	tr := Affine{CI: 0, CJ: 1} // j as row index
	if tr.At(5, 9) != 9 {
		t.Error("transpose subscript wrong")
	}
}

func TestCompileIdentityNoComm(t *testing.T) {
	a, b := rowsArr("a", 16), rowsArr("b", 16)
	s := CompileAssign(Assign{LHS: b, RHS: a, RowSub: I, ColSub: J}, 4)
	if len(s.Transfers) != 0 {
		t.Fatalf("identity produced transfers: %v", s.Transfers)
	}
	if s.LocalElems != 16*16 {
		t.Errorf("local elems = %d", s.LocalElems)
	}
	if _, comm := s.Classify(); comm {
		t.Error("identity classified as communicating")
	}
}

func TestCompileHaloShiftIsNeighbor(t *testing.T) {
	// B[i,j] = A[i-1,j]: every rank's first owned row comes from the rank
	// below — SOR's boundary exchange, one direction.
	a, b := rowsArr("a", 16), rowsArr("b", 16)
	s := CompileAssign(Assign{LHS: b, RHS: a, RowSub: I.Shifted(-1), ColSub: J}, 4)
	pat, comm := s.Classify()
	if !comm || pat != fx.Neighbor {
		t.Fatalf("shift pattern = %v (comm=%v)", pat, comm)
	}
	// Ranks 1..3 each fetch one 16-element row from below.
	if len(s.Transfers) != 3 {
		t.Fatalf("transfers = %v", s.Transfers)
	}
	for _, tr := range s.Transfers {
		if tr.Dst != tr.Src+1 || tr.Count != 16 {
			t.Errorf("transfer = %+v", tr)
		}
	}
	// Boundary: row −1 does not exist, so rank 0 receives nothing.
	if s.LocalElems != 16*16-16-3*16 {
		t.Errorf("local elems = %d", s.LocalElems)
	}
}

func TestCompileTransposeIsAllToAll(t *testing.T) {
	a, b := rowsArr("a", 16), rowsArr("b", 16)
	s := CompileAssign(Assign{LHS: b, RHS: a, RowSub: Affine{CJ: 1}, ColSub: Affine{CI: 1}}, 4)
	pat, comm := s.Classify()
	if !comm || pat != fx.AllToAll {
		t.Fatalf("transpose pattern = %v", pat)
	}
	if s.Connections() != 12 {
		t.Errorf("connections = %d, want 12", s.Connections())
	}
	// Every off-diagonal block is (16/4)² elements.
	for _, tr := range s.Transfers {
		if tr.Count != 16 {
			t.Errorf("transfer %+v, want 16 elements", tr)
		}
	}
	// This is the paper's O((N/P)²) message: at N=512 it is 128²·8 bytes.
	big := CompileAssign(Assign{
		LHS:    &Array{Name: "B", Rows: 512, Cols: 512, Dist: DistRows, ElemBytes: 8},
		RHS:    &Array{Name: "A", Rows: 512, Cols: 512, Dist: DistRows, ElemBytes: 8},
		RowSub: Affine{CJ: 1}, ColSub: Affine{CI: 1},
	}, 4)
	if got := big.MaxMessageBytes(); got != 128*128*8 {
		t.Errorf("2DFFT transpose message = %d, want 131072", got)
	}
}

func TestCompileRedistributionIsAllToAll(t *testing.T) {
	a := rowsArr("a", 16)
	b := &Array{Name: "b", Rows: 16, Cols: 16, Dist: DistCols, ElemBytes: 4}
	s := CompileAssign(Assign{LHS: b, RHS: a, RowSub: I, ColSub: J}, 4)
	if pat, comm := s.Classify(); !comm || pat != fx.AllToAll {
		t.Fatalf("redistribution pattern = %v", pat)
	}
}

func TestCompileSerialReadIsBroadcast(t *testing.T) {
	// SEQ: a distributed array initialized from a serial one.
	ser := &Array{Name: "in", Rows: 16, Cols: 16, Dist: DistSerial, ElemBytes: 8}
	b := rowsArr("b", 16)
	b.ElemBytes = 8
	s := CompileAssign(Assign{LHS: b, RHS: ser, RowSub: I, ColSub: J}, 4)
	pat, comm := s.Classify()
	if !comm || pat != fx.Broadcast {
		t.Fatalf("serial read pattern = %v", pat)
	}
	if s.Connections() != 3 {
		t.Errorf("connections = %d", s.Connections())
	}
}

func TestCompileHalfShiftIsPartition(t *testing.T) {
	// The second half of the rows reads from the first half: a partition.
	a, b := rowsArr("a", 16), rowsArr("b", 16)
	s := CompileAssign(Assign{LHS: b, RHS: a, RowSub: I.Shifted(-8), ColSub: J}, 4)
	pat, comm := s.Classify()
	if !comm || pat != fx.Partition {
		t.Fatalf("half-shift pattern = %v", pat)
	}
}

func TestCompileReduceIsTree(t *testing.T) {
	a := rowsArr("a", 16)
	s := CompileReduce(Reduce{Src: a, ResultBytes: 2048}, 4)
	pat, comm := s.Classify()
	if !comm || pat != fx.Tree {
		t.Fatalf("reduce pattern = %v", pat)
	}
	// Binomial tree at P=4: 1→0, 3→2, 2→0, each 2048 bytes.
	if len(s.Transfers) != 3 || s.TotalBytes() != 3*2048 {
		t.Errorf("transfers = %v", s.Transfers)
	}
}

// TestClassifyAcrossP pins the class of five statements at P = 2, 3, 4, 5
// and 8 on a 120×120 array, which every P divides. The reduction is a
// tree at every P, and at P = 2 the pair sets collapse (see Classify). A
// half shift is a partition only at P = 4 and 8: at odd P a rank owns rows
// of both halves.
func TestClassifyAcrossP(t *testing.T) {
	const n = 120
	a, b := rowsArr("a", n), rowsArr("b", n)
	c := &Array{Name: "c", Rows: n, Cols: n, Dist: DistCols, ElemBytes: 4}
	in := &Array{Name: "in", Rows: n, Cols: n, Dist: DistSerial, ElemBytes: 4}
	stmts := []struct {
		name    string
		compile func(P int) *Schedule
		want    map[int]fx.Pattern
	}{
		{"two-way shift", func(P int) *Schedule {
			up := CompileAssign(Assign{LHS: b, RHS: a, RowSub: I.Shifted(-1), ColSub: J}, P)
			down := CompileAssign(Assign{LHS: b, RHS: a, RowSub: I.Shifted(1), ColSub: J}, P)
			return &Schedule{P: P, ElemBytes: 4, Transfers: append(up.Transfers, down.Transfers...)}
		}, map[int]fx.Pattern{2: fx.Neighbor, 3: fx.Neighbor, 4: fx.Neighbor, 5: fx.Neighbor, 8: fx.Neighbor}},
		{"redistribution", func(P int) *Schedule {
			return CompileAssign(Assign{LHS: c, RHS: a, RowSub: I, ColSub: J}, P)
		}, map[int]fx.Pattern{2: fx.Neighbor, 3: fx.AllToAll, 4: fx.AllToAll, 5: fx.AllToAll, 8: fx.AllToAll}},
		{"serial read", func(P int) *Schedule {
			return CompileAssign(Assign{LHS: b, RHS: in, RowSub: I, ColSub: J}, P)
		}, map[int]fx.Pattern{2: fx.Broadcast, 3: fx.Broadcast, 4: fx.Broadcast, 5: fx.Broadcast, 8: fx.Broadcast}},
		{"half shift", func(P int) *Schedule {
			return CompileAssign(Assign{LHS: b, RHS: a, RowSub: I.Shifted(-n / 2), ColSub: J}, P)
		}, map[int]fx.Pattern{2: fx.Broadcast, 3: fx.AllToAll, 4: fx.Partition, 5: fx.AllToAll, 8: fx.Partition}},
		{"reduce", func(P int) *Schedule {
			return CompileReduce(Reduce{Src: a, ResultBytes: 2048}, P)
		}, map[int]fx.Pattern{2: fx.Tree, 3: fx.Tree, 4: fx.Tree, 5: fx.Tree, 8: fx.Tree}},
	}
	for _, st := range stmts {
		for _, P := range []int{2, 3, 4, 5, 8} {
			pat, comm := st.compile(P).Classify()
			if want := st.want[P]; !comm || pat != want {
				t.Errorf("%s at P=%d: %v (comm=%v), want %v", st.name, P, pat, comm, want)
			}
		}
	}
}

func TestScheduleAccessors(t *testing.T) {
	a, b := rowsArr("a", 16), rowsArr("b", 16)
	s := CompileAssign(Assign{LHS: b, RHS: a, RowSub: Affine{CJ: 1}, ColSub: Affine{CI: 1}}, 4)
	if s.TotalBytes() != 12*16*4 {
		t.Errorf("total bytes = %d", s.TotalBytes())
	}
}

func TestCompileBoundaryClipsOutOfRange(t *testing.T) {
	a, b := rowsArr("a", 8), rowsArr("b", 8)
	// Shift by more than the array: everything out of range.
	s := CompileAssign(Assign{LHS: b, RHS: a, RowSub: I.Shifted(-100), ColSub: J}, 4)
	if len(s.Transfers) != 0 || s.LocalElems != 0 {
		t.Errorf("out-of-range shift: %+v", s)
	}
}

func TestBadDeclarationsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty shape": func() {
			CompileAssign(Assign{LHS: &Array{Name: "x", ElemBytes: 4}, RHS: rowsArr("a", 4), RowSub: I, ColSub: J}, 2)
		},
		"no elem size": func() {
			CompileAssign(Assign{LHS: rowsArr("a", 4), RHS: &Array{Name: "y", Rows: 4, Cols: 4}, RowSub: I, ColSub: J}, 2)
		},
		"bad P": func() {
			CompileAssign(Assign{LHS: rowsArr("a", 4), RHS: rowsArr("b", 4), RowSub: I, ColSub: J}, 0)
		},
		"bad reduce": func() {
			CompileReduce(Reduce{Src: rowsArr("a", 4)}, 2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
