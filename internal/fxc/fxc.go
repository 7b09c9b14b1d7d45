// Package fxc implements the communication-generation core of the Fx
// parallelizing compiler: given HPF-style distributed array declarations
// and parallel array assignment statements, it computes, at compile time,
// the exact send/receive sets of every processor and classifies the
// resulting global pattern — the machinery of the paper's reference [19]
// (Stichnoth, O'Halloron, Gross: "Generating communication for array
// statements") that makes the paper's burst sizes "known a priori ... at
// compile-time" (§7.3).
//
// The dialect is deliberately the fragment Fx handles for dense-matrix
// codes: two-dimensional arrays with BLOCK distribution over one
// dimension (or serial ownership on processor 0), and assignments whose
// subscripts are affine maps of the iteration space. That is exactly
// enough to express the kernels' communication: halo shifts (neighbor),
// transposes and redistributions (all-to-all), serial-to-distributed
// reads (broadcast), and reductions (tree).
package fxc

import (
	"fmt"
	"sort"

	"fxnet/internal/fx"
)

// Dist describes how an array's rows/columns map to processors.
type Dist int

// Distributions.
const (
	// DistRows blocks dimension 0 (rows) over the processors.
	DistRows Dist = iota
	// DistCols blocks dimension 1 (columns) over the processors.
	DistCols
	// DistSerial places the whole array on processor 0 (Fx's sequential
	// arrays, the source of SEQ's broadcast traffic).
	DistSerial
)

// Array is a distributed two-dimensional array declaration.
type Array struct {
	Name       string
	Rows, Cols int
	Dist       Dist
	// ElemBytes is the element size (4 for REAL*4, 8 for COMPLEX*8...).
	ElemBytes int
}

// Owner returns the rank owning element (i, j) on P processors.
func (a *Array) Owner(P, i, j int) int {
	switch a.Dist {
	case DistRows:
		return fx.BlockOwner(a.Rows, P, i)
	case DistCols:
		return fx.BlockOwner(a.Cols, P, j)
	default:
		return 0
	}
}

// check panics on malformed declarations.
func (a *Array) check() {
	if a.Rows <= 0 || a.Cols <= 0 {
		panic(fmt.Sprintf("fxc: array %s has empty shape", a.Name))
	}
	if a.ElemBytes <= 0 {
		panic(fmt.Sprintf("fxc: array %s has no element size", a.Name))
	}
}

// Affine is a subscript expression c0 + ci·i + cj·j over the iteration
// space (i, j).
type Affine struct {
	C0, CI, CJ int
}

// At evaluates the subscript for iteration point (i, j).
func (a Affine) At(i, j int) int { return a.C0 + a.CI*i + a.CJ*j }

// Common subscripts.
var (
	// I is the identity row subscript.
	I = Affine{CI: 1}
	// J is the identity column subscript.
	J = Affine{CJ: 1}
)

// Shifted returns the subscript plus a constant offset.
func (a Affine) Shifted(c int) Affine { a.C0 += c; return a }

// Assign is a parallel array assignment LHS[i,j] = f(RHS[RowSub, ColSub])
// iterated over the LHS index space (owner-computes rule).
type Assign struct {
	LHS    *Array
	RHS    *Array
	RowSub Affine
	ColSub Affine
}

// Reduce is a global reduction of a distributed array to processor 0
// (Fx compiles these to the tree pattern).
type Reduce struct {
	Src *Array
	// ResultBytes is the size of the reduced value each tree edge
	// carries.
	ResultBytes int
}

// Transfer is one compile-time-known message: Count elements from Src to
// Dst ranks.
type Transfer struct {
	Src, Dst int
	Count    int
}

// Bytes is the message payload size.
func (t Transfer) Bytes(elemBytes int) int { return t.Count * elemBytes }

// Schedule is the compiled communication of one statement.
type Schedule struct {
	P         int
	ElemBytes int
	Transfers []Transfer // sorted by (Src, Dst), only Count > 0
	// LocalElems counts owner-computes elements needing no communication.
	LocalElems int
}

// CompileAssign computes the schedule of an array assignment on P
// processors: for every LHS element its rank owns, the rank fetching the
// RHS element from its owner. Out-of-range RHS accesses (a shifted halo
// at the boundary) are skipped, matching Fx's boundary semantics.
func CompileAssign(st Assign, P int) *Schedule {
	st.LHS.check()
	st.RHS.check()
	if P < 1 {
		panic("fxc: P < 1")
	}
	counts := make(map[[2]int]int)
	local := 0
	for i := 0; i < st.LHS.Rows; i++ {
		for j := 0; j < st.LHS.Cols; j++ {
			si, sj := st.RowSub.At(i, j), st.ColSub.At(i, j)
			if si < 0 || si >= st.RHS.Rows || sj < 0 || sj >= st.RHS.Cols {
				continue // boundary: no source element
			}
			dst := st.LHS.Owner(P, i, j)
			src := st.RHS.Owner(P, si, sj)
			if src == dst {
				local++
				continue
			}
			counts[[2]int{src, dst}]++
		}
	}
	return newSchedule(P, st.RHS.ElemBytes, counts, local)
}

// CompileReduce computes the binomial-tree schedule of a reduction.
func CompileReduce(st Reduce, P int) *Schedule {
	st.Src.check()
	if st.ResultBytes <= 0 {
		panic("fxc: reduction result size must be positive")
	}
	counts := make(map[[2]int]int)
	for stride := 1; stride < P; stride <<= 1 {
		for r := 0; r < P; r++ {
			if r&stride != 0 && r-stride >= 0 {
				// Odd multiples of the stride send and drop out.
				if r%(2*stride) == stride {
					counts[[2]int{r, r - stride}] += st.ResultBytes
				}
			}
		}
	}
	return newSchedule(P, 1, counts, 0)
}

func newSchedule(P, elemBytes int, counts map[[2]int]int, local int) *Schedule {
	s := &Schedule{P: P, ElemBytes: elemBytes, LocalElems: local}
	for pair, n := range counts {
		s.Transfers = append(s.Transfers, Transfer{Src: pair[0], Dst: pair[1], Count: n})
	}
	sort.Slice(s.Transfers, func(a, b int) bool {
		if s.Transfers[a].Src != s.Transfers[b].Src {
			return s.Transfers[a].Src < s.Transfers[b].Src
		}
		return s.Transfers[a].Dst < s.Transfers[b].Dst
	})
	return s
}

// TotalBytes sums the payload of all messages.
func (s *Schedule) TotalBytes() int {
	n := 0
	for _, t := range s.Transfers {
		n += t.Bytes(s.ElemBytes)
	}
	return n
}

// Connections reports the number of distinct (src, dst) pairs.
func (s *Schedule) Connections() int { return len(s.Transfers) }

// MaxMessageBytes reports the largest single message.
func (s *Schedule) MaxMessageBytes() int {
	m := 0
	for _, t := range s.Transfers {
		if b := t.Bytes(s.ElemBytes); b > m {
			m = b
		}
	}
	return m
}

// Classify maps the transfer set onto the paper's figure 1 patterns. The
// boolean is false when the statement needs no communication at all.
//
// The binomial tree is tested first: at P = 3 its edges 1→0, 2→0 would
// otherwise pass as a partition, and at P = 2 its one edge as a neighbor
// exchange. At P = 2 the patterns' pair sets collapse: neighbor and
// all-to-all are both {0→1, 1→0}, the shift b(i,j) = a(i-1,j) is the
// broadcast {0→1} and b(i,j) = a(i+1,j) the tree {1→0}. A caller holding
// a statement to a known pattern at P = 2 compares pair sets, not classes.
func (s *Schedule) Classify() (fx.Pattern, bool) {
	if len(s.Transfers) == 0 {
		return 0, false
	}
	srcs := map[int]bool{}
	dsts := map[int]bool{}
	neighborOnly := true
	for _, t := range s.Transfers {
		srcs[t.Src] = true
		dsts[t.Dst] = true
		if d := t.Src - t.Dst; d != 1 && d != -1 {
			neighborOnly = false
		}
	}
	switch {
	case s.isTree():
		return fx.Tree, true
	case len(srcs) == 1 && srcs[0] && !dsts[0]:
		return fx.Broadcast, true
	case neighborOnly:
		return fx.Neighbor, true
	case len(s.Transfers) == s.P*(s.P-1):
		return fx.AllToAll, true
	case disjoint(srcs, dsts):
		return fx.Partition, true
	default:
		return fx.AllToAll, true // general many-to-many: closest figure-1 class
	}
}

// isTree recognizes the binomial up-sweep transfer set.
func (s *Schedule) isTree() bool {
	want := map[[2]int]bool{}
	for stride := 1; stride < s.P; stride <<= 1 {
		for r := 0; r < s.P; r++ {
			if r%(2*stride) == stride {
				want[[2]int{r, r - stride}] = true
			}
		}
	}
	if len(want) != len(s.Transfers) {
		return false
	}
	for _, t := range s.Transfers {
		if !want[[2]int{t.Src, t.Dst}] {
			return false
		}
	}
	return true
}

func disjoint(a, b map[int]bool) bool {
	for k := range a {
		if b[k] {
			return false
		}
	}
	return true
}
