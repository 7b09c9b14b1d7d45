// Compiler example: the premise behind the paper's §7.3 negotiation is
// that for a compiler-parallelized program "the burst size is usually
// known a priori (in the case of Fx, at compile-time)". This example
// demonstrates exactly that with the mini-Fx compiler: HPF-style array
// statements are compiled into communication schedules whose per-message
// sizes, connection sets, and figure-1 patterns are all known before the
// program runs. internal/kernels' TestKernelTrafficMatchesCompiler holds
// the five kernels' statements to their registered laws and to the
// captured wire, byte for byte.
package main

import (
	"fmt"

	"fxnet/internal/fxc"
)

func main() {
	const n, p = 256, 4

	// !HPF$ DISTRIBUTE a(BLOCK, *), b(BLOCK, *), c(*, BLOCK)
	a := &fxc.Array{Name: "a", Rows: n, Cols: n, Dist: fxc.DistRows, ElemBytes: 8}
	b := &fxc.Array{Name: "b", Rows: n, Cols: n, Dist: fxc.DistRows, ElemBytes: 8}
	c := &fxc.Array{Name: "c", Rows: n, Cols: n, Dist: fxc.DistCols, ElemBytes: 8}
	input := &fxc.Array{Name: "input", Rows: n, Cols: n, Dist: fxc.DistSerial, ElemBytes: 8}

	stmts := []struct {
		text  string
		sched *fxc.Schedule
	}{
		{"b(i,j) = f(a(i-1,j))        ! halo shift",
			fxc.CompileAssign(fxc.Assign{LHS: b, RHS: a, RowSub: fxc.I.Shifted(-1), ColSub: fxc.J}, p)},
		{"b(i,j) = a(j,i)             ! transpose",
			fxc.CompileAssign(fxc.Assign{LHS: b, RHS: a, RowSub: fxc.Affine{CJ: 1}, ColSub: fxc.Affine{CI: 1}}, p)},
		{"c(i,j) = a(i,j)             ! redistribution rows→cols",
			fxc.CompileAssign(fxc.Assign{LHS: c, RHS: a, RowSub: fxc.I, ColSub: fxc.J}, p)},
		{"b(i,j) = input(i,j)         ! sequential input",
			fxc.CompileAssign(fxc.Assign{LHS: b, RHS: input, RowSub: fxc.I, ColSub: fxc.J}, p)},
		{"s = sum(a)                  ! reduction",
			fxc.CompileReduce(fxc.Reduce{Src: a, ResultBytes: 2048}, p)},
		{"b(i,j) = a(i,j)             ! aligned copy",
			fxc.CompileAssign(fxc.Assign{LHS: b, RHS: a, RowSub: fxc.I, ColSub: fxc.J}, p)},
	}

	fmt.Printf("compile-time communication analysis (N=%d, P=%d):\n\n", n, p)
	fmt.Printf("%-42s %-12s %6s %12s %12s\n", "statement", "pattern", "conns", "max msg (B)", "total (B)")
	for _, st := range stmts {
		pat, comm := st.sched.Classify()
		patStr := "none (local)"
		if comm {
			patStr = pat.String()
		}
		fmt.Printf("%-42s %-12s %6d %12d %12d\n",
			st.text, patStr, st.sched.Connections(), st.sched.MaxMessageBytes(), st.sched.TotalBytes())
	}
}
