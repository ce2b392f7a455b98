//go:build !purego

// The sixteen-lane row-insertion kernel (see rowInsertionsAVX2 in
// probe_amd64.go) and the CPUID/XGETBV stubs its dispatch needs.
//
// Bit identity with the scalar kernel (packSums4 in probe.go): the
// kernel vectorises across candidates, never across entries. For each
// pack entry v, in pack order, it skips v if NaN, forms d = v − rowBase
// once as a scalar, and then every lane q computes (d − cb_q[k]) + b_q,
// takes |·| as a sign-mask AND (the bit operation math.Abs is) or the
// product r·r, and adds the term to its own sum. That is the scalar
// kernel's sequence of IEEE operations on the same operands, in the same
// order, per lane: packed VSUBPD/VADDPD/VMULPD/VANDPD are lane-wise IEEE
// operations with the scalar ones' rounding; a+b and b+a are the same
// bits (every NaN that can reach a sum is the default NaN, or its
// absolute value, so payload selection cannot differ); nothing is
// fused (no FMA) and no lane's additions are reordered; Go runs with
// MXCSR at its default (round to nearest, no flush-to-zero, no
// denormals-are-zero). Only VEX encodings are used, and VZEROUPPER
// precedes RET, so no SSE/AVX transition penalty leaks into Go code.

#include "textflag.h"

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// LANE forms one group of four lanes' terms before φ: T = (d − cb) + b,
// with d broadcast in Y10, cb the group's four interleaved column bases
// at off(DI) and b the group's toggled overall bases in B.
#define LANE(off, B, T) VSUBPD off(DI), Y10, T; VADDPD B, T, T

// func rowInsertionsAVX2(pack *float64, stride, rows, nc int, bases, cbT *float64, b, sums *[16]float64, squared bool)
//
// Register plan: Y0–Y3 the sixteen lane sums, Y4–Y7 the lanes' toggled
// overall bases b, Y8 the sign mask, X9 the row base, Y10 the broadcast
// offset d, Y11–Y14 the lane terms. SI walks the pack rows, R11 the row
// bases, DI the interleaved column bases of the current entry, CX the
// entry within the row.
TEXT ·rowInsertionsAVX2(SB), NOSPLIT, $0-65
	MOVQ pack+0(FP), SI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8
	MOVQ rows+16(FP), R9
	MOVQ nc+24(FP), R10
	MOVQ bases+32(FP), R11
	MOVQ cbT+40(FP), R12
	MOVQ b+48(FP), AX
	VMOVUPD 0(AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD 64(AX), Y6
	VMOVUPD 96(AX), Y7
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ $0x7fffffffffffffff, AX
	VMOVQ AX, X8
	VPBROADCASTQ X8, Y8
	TESTQ R9, R9
	JZ   done
	TESTQ R10, R10
	JZ   done
	MOVBLZX squared+64(FP), AX
	TESTQ AX, AX
	JNZ  sqrow

absrow:
	VMOVSD (R11), X9
	MOVQ R12, DI
	XORQ CX, CX

absentry:
	VMOVSD (SI)(CX*8), X10
	VUCOMISD X10, X10
	JP   absskip
	VSUBSD X9, X10, X10
	VBROADCASTSD X10, Y10
	LANE(0, Y4, Y11)
	LANE(32, Y5, Y12)
	LANE(64, Y6, Y13)
	LANE(96, Y7, Y14)
	VANDPD Y8, Y11, Y11
	VANDPD Y8, Y12, Y12
	VANDPD Y8, Y13, Y13
	VANDPD Y8, Y14, Y14
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VADDPD Y13, Y2, Y2
	VADDPD Y14, Y3, Y3

absskip:
	ADDQ $128, DI
	INCQ CX
	CMPQ CX, R10
	JLT  absentry
	ADDQ R8, SI
	ADDQ $8, R11
	DECQ R9
	JNZ  absrow
	JMP  done

sqrow:
	VMOVSD (R11), X9
	MOVQ R12, DI
	XORQ CX, CX

sqentry:
	VMOVSD (SI)(CX*8), X10
	VUCOMISD X10, X10
	JP   sqskip
	VSUBSD X9, X10, X10
	VBROADCASTSD X10, Y10
	LANE(0, Y4, Y11)
	LANE(32, Y5, Y12)
	LANE(64, Y6, Y13)
	LANE(96, Y7, Y14)
	VMULPD Y11, Y11, Y11
	VMULPD Y12, Y12, Y12
	VMULPD Y13, Y13, Y13
	VMULPD Y14, Y14, Y14
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VADDPD Y13, Y2, Y2
	VADDPD Y14, Y3, Y3

sqskip:
	ADDQ $128, DI
	INCQ CX
	CMPQ CX, R10
	JLT  sqentry
	ADDQ R8, SI
	ADDQ $8, R11
	DECQ R9
	JNZ  sqrow

done:
	MOVQ sums+56(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VZEROUPPER
	RET
