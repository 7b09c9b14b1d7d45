package fxc

import (
	"fmt"
	"testing"

	"fxnet/internal/ethernet"
	"fxnet/internal/fx"
	"fxnet/internal/netstack"
	"fxnet/internal/pvm"
	"fxnet/internal/sim"
	"fxnet/internal/trace"
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

func TestScheduleAccessors(t *testing.T) {
	a, b := rowsArr("a", 16), rowsArr("b", 16)
	s := CompileAssign(Assign{LHS: b, RHS: a, RowSub: Affine{CJ: 1}, ColSub: Affine{CI: 1}}, 4)
	if got := len(s.SendsOf(2)); got != 3 {
		t.Errorf("rank 2 sends = %d", got)
	}
	if got := len(s.RecvsOf(2)); got != 3 {
		t.Errorf("rank 2 recvs = %d", got)
	}
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

func TestExecuteScheduleOnSimulator(t *testing.T) {
	// Compile a transpose and run its communication on the live testbed:
	// the wire must show exactly the all-to-all pairs with the compiled
	// message sizes.
	a, b := rowsArr("a", 64), rowsArr("b", 64)
	sched := CompileAssign(Assign{LHS: b, RHS: a, RowSub: Affine{CJ: 1}, ColSub: Affine{CI: 1}}, 4)

	k := sim.New(1)
	t.Cleanup(k.Close)
	seg := ethernet.NewSegment(k, 0)
	var hosts []*netstack.Host
	for i := 0; i < 4; i++ {
		st := seg.Attach(fmt.Sprintf("h%d", i))
		hosts = append(hosts, netstack.NewHost(k, st, st.Name(), netstack.DefaultConfig()))
	}
	col := trace.Capture(seg)
	m := pvm.NewMachine(k, hosts, pvm.Config{})
	team := fx.Launch(m, 4, fx.CostModel{DefaultRate: 1e12}, "fxc", func(w *fx.Worker) {
		Execute(w, sched, 7000)
	})
	k.Run()
	if !team.Done() {
		t.Fatal("schedule execution deadlocked")
	}

	pairs := map[[2]int]int{}
	for _, p := range col.Trace().Packets {
		if p.Proto == ethernet.ProtoTCP && p.Flags&ethernet.FlagData != 0 {
			pairs[[2]int{int(p.Src), int(p.Dst)}] += int(p.Size)
		}
	}
	if len(pairs) != 12 {
		t.Fatalf("wire pairs = %d, want 12", len(pairs))
	}
	// Each message: 16×16 elements × 4 B = 1024 B payload, one frame.
	for pair, bytes := range pairs {
		if bytes < 1024 || bytes > 1200 {
			t.Errorf("pair %v carried %d bytes", pair, bytes)
		}
	}
}

func TestExecuteWrongPPanics(t *testing.T) {
	a, b := rowsArr("a", 8), rowsArr("b", 8)
	sched := CompileAssign(Assign{LHS: b, RHS: a, RowSub: I.Shifted(-1), ColSub: J}, 4)
	defer func() {
		if recover() == nil {
			t.Error("no panic on P mismatch")
		}
	}()
	Execute(&fx.Worker{Rank: 0, P: 2}, sched, 1)
}

func TestDistString(t *testing.T) {
	if DistRows.String() != "block-rows" || DistCols.String() != "block-cols" || DistSerial.String() != "serial" {
		t.Error("Dist.String wrong")
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
