#include "textflag.h"

// func tileAVX2(acc *[32]float64, rows, cols []float64)
//
// Y8+2r and Y9+2r hold row r's sums against columns 0-3 and 4-7. Each
// bin loads the 8 column deviations (Y0, Y1) and broadcasts the 4 row
// deviations; every lane multiplies, then adds, in bin order. No FMA:
// a fused multiply-add rounds once and would move the last bits.
TEXT ·tileAVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ rows_base+8(FP), SI
	MOVQ cols_base+32(FP), DX
	MOVQ cols_len+40(FP), CX
	SHRQ $3, CX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	TESTQ CX, CX
	JZ   done

loop:
	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1
	VBROADCASTSD 0(SI), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y8, Y8
	VMULPD Y1, Y2, Y4
	VADDPD Y4, Y9, Y9
	VBROADCASTSD 8(SI), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y10, Y10
	VMULPD Y1, Y2, Y4
	VADDPD Y4, Y11, Y11
	VBROADCASTSD 16(SI), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y12, Y12
	VMULPD Y1, Y2, Y4
	VADDPD Y4, Y13, Y13
	VBROADCASTSD 24(SI), Y2
	VMULPD Y0, Y2, Y3
	VADDPD Y3, Y14, Y14
	VMULPD Y1, Y2, Y4
	VADDPD Y4, Y15, Y15
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)
	VMOVUPD Y12, 128(DI)
	VMOVUPD Y13, 160(DI)
	VMOVUPD Y14, 192(DI)
	VMOVUPD Y15, 224(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
