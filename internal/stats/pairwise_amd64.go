package stats

// useAVX2 is whether rowQuad runs tileAVX2 on the panels right of the
// diagonal: the CPU has AVX2 and the OS saves the YMM registers. Tests
// clear it to hold the portable tile to the naive fold too.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c, _ := cpuid(1, 0)
	_, b, _, _ := cpuid(7, 0)
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	// XGETBV faults without OSXSAVE; bits 1 and 2 are XMM and YMM state.
	return maxLeaf >= 7 && c&(osxsave|avx) == osxsave|avx && xgetbv()&6 == 6 && b&avx2 != 0
}

// tileAVX2 is tilePortable in four lanes: the same 32 sums, each a
// VMULPD then a VADDPD per bin, in bin order (pairwise_amd64.s). It
// checks no bounds: rows must hold 8n−4 values for n = len(cols)/8.
//
//go:noescape
func tileAVX2(acc *[32]float64, rows, cols []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
