//go:build !purego

// The sixteen-lane probe kernels (see rowLanesAVX2 and colLanesAVX2 in
// probe_amd64.go).
//
// Bit identity with the Go kernels (rowSums4, ownSums and colSums4 in
// probe_kernel.go): the kernels vectorise across lanes, never across
// entries, and every lane performs its scalar scan's IEEE operations
// on the same operands in the same order:
//
//   - Row kernel, pack entries: each entry v, in pack order, is skipped
//     if NaN (one scalar compare, the same for every lane); otherwise
//     d = v − rowBase is formed once as a scalar and broadcast, and
//     every lane q computes (d − cb_q[k]) + b_q.
//   - Row kernel epilogue, the inserted rows' own entries: lane q's
//     entry v_q at member column k gives ((v_q − ob_q) − cb_q[k]) + b_q.
//   - Column kernel, pack entries: skipped if NaN as above; otherwise
//     v is broadcast and every lane computes ((v − rb_q) − cb[k]) + b_q
//     with its toggled row base rb_q and the shared column base cb[k].
//   - Column kernel, each row's inserted entry v_q:
//     ((v_q − rb_q) − ib_q) + b_q.
//
// Every term then takes |·| as a sign-mask AND (the bit operation
// math.Abs is) and is added to the lane's own sum, sum + term. Where the lanes' own entries differ, a lane whose entry
// is NaN must skip it: its term is computed and then discarded by a
// blend that keeps the old sum, so the sum is exactly what the skip
// leaves. Packed VSUBPD/VADDPD are lane-wise IEEE operations with
// the scalar ones' rounding; a+b and b+a are the same
// bits (every NaN that can reach a kept sum is the default NaN, or its
// absolute value, so payload selection cannot differ); nothing is
// fused (no FMA) and no lane's additions are reordered; Go runs with
// MXCSR at its default (round to nearest, no flush-to-zero, no
// denormals-are-zero). Only VEX encodings are used, and VZEROUPPER
// precedes RET, so no SSE/AVX transition penalty leaks into Go code.

#include "textflag.h"

// ABS takes |·| of a group's four terms in T.
#define ABS(T) VANDPD Y8, T, T

// ROWLANE adds one group of four lanes' term of the broadcast offset d
// in Y10 to the group's sums S: T = |(d − cb) + b|, with cb the
// group's four interleaved column bases at off(DI) and b the group's
// toggled overall bases in B.
#define ROWLANE(off, B, S) VSUBPD off(DI), Y10, Y11; VADDPD B, Y11, Y11; ABS(Y11); VADDPD Y11, S, S

// COLLANE is ROWLANE for the column kernel: T = |((v − rb) − cb) + b|,
// with v broadcast in Y10, rb the group's toggled row bases at off(R12)
// and cb the column base broadcast in Y9.
#define COLLANE(off, B, S) VSUBPD off(R12), Y10, Y11; VSUBPD Y9, Y11, Y11; VADDPD B, Y11, Y11; ABS(Y11); VADDPD Y11, S, S

// MASKED adds one group's terms of the lanes' own entries at off(BX):
// T = |((v − x) − y) + b| with x at off(X) and y at off(Y), blended
// into S only where v is not NaN (Y12 marks the NaN lanes).
#define MASKED(off, X, Y, B, S) VMOVUPD off(BX), Y11; VCMPPD $3, Y11, Y11, Y12; VSUBPD off(X), Y11, Y11; VSUBPD off(Y), Y11, Y11; VADDPD B, Y11, Y11; ABS(Y11); VADDPD Y11, S, Y13; VBLENDVPD Y12, S, Y13, S

// ROWENTRY scores pack entry CX of the row at SI for all sixteen lanes,
// or skips it if NaN; X9 holds the row base.
#define ROWENTRY(skip) VMOVSD (SI)(CX*8), X10; VUCOMISD X10, X10; JP skip; VSUBSD X9, X10, X10; VBROADCASTSD X10, Y10; ROWLANE(0, Y4, Y0); ROWLANE(32, Y5, Y1); ROWLANE(64, Y6, Y2); ROWLANE(96, Y7, Y3)

// COLENTRY scores pack entry CX of the row at SI for all sixteen
// lanes, or skips it if NaN.
#define COLENTRY(skip) VMOVSD (SI)(CX*8), X10; VUCOMISD X10, X10; JP skip; VBROADCASTSD X10, Y10; VBROADCASTSD (R11)(CX*8), Y9; COLLANE(0, Y4, Y0); COLLANE(32, Y5, Y1); COLLANE(64, Y6, Y2); COLLANE(96, Y7, Y3)

// OWNENTRY adds the sixteen lanes' own entries at BX, under their own
// row bases at DX and column bases at DI.
#define OWNENTRY MASKED(0, DX, DI, Y4, Y0); MASKED(32, DX, DI, Y5, Y1); MASKED(64, DX, DI, Y6, Y2); MASKED(96, DX, DI, Y7, Y3)

// ITEMENTRY adds the sixteen lanes' inserted entries at BX, under their
// row bases at R12 and the inserted columns' bases at DX.
#define ITEMENTRY MASKED(0, R12, DX, Y4, Y0); MASKED(32, R12, DX, Y5, Y1); MASKED(64, R12, DX, Y6, Y2); MASKED(96, R12, DX, Y7, Y3)

// ROWENTRY1, COLENTRY1, OWNENTRY1 and ITEMENTRY1 are the one-group
// forms for batches of at most four lanes: the first group's terms
// only, in the same order.
#define ROWENTRY1(skip) VMOVSD (SI)(CX*8), X10; VUCOMISD X10, X10; JP skip; VSUBSD X9, X10, X10; VBROADCASTSD X10, Y10; ROWLANE(0, Y4, Y0)
#define COLENTRY1(skip) VMOVSD (SI)(CX*8), X10; VUCOMISD X10, X10; JP skip; VBROADCASTSD X10, Y10; VBROADCASTSD (R11)(CX*8), Y9; COLLANE(0, Y4, Y0)
#define OWNENTRY1 MASKED(0, DX, DI, Y4, Y0)
#define ITEMENTRY1 MASKED(0, R12, DX, Y4, Y0)

// SETUP loads the lanes' overall bases from AX into Y4–Y7, their sums
// from DX into Y0–Y3 and the sign mask into Y8.
#define SETUP VMOVUPD 0(AX), Y4; VMOVUPD 32(AX), Y5; VMOVUPD 64(AX), Y6; VMOVUPD 96(AX), Y7; VMOVUPD 0(DX), Y0; VMOVUPD 32(DX), Y1; VMOVUPD 64(DX), Y2; VMOVUPD 96(DX), Y3; MOVQ $0x7fffffffffffffff, AX; VMOVQ AX, X8; VPBROADCASTQ X8, Y8

// STORE writes the sums back to AX.
#define STORE VMOVUPD Y0, 0(AX); VMOVUPD Y1, 32(AX); VMOVUPD Y2, 64(AX); VMOVUPD Y3, 96(AX); VZEROUPPER

// func rowLanesAVX2(pack *float64, stride, rows, nc int, bases, cbT, vals *float64, own, b, sums *[16]float64, narrow bool)
//
// Register plan: Y0–Y3 the sixteen lane sums, Y4–Y7 the lanes' toggled
// overall bases b, Y8 the sign mask, X9 the row base, Y10 the broadcast
// offset d, Y11–Y13 the lane terms. SI walks the pack rows, R11 the row
// bases, DI the interleaved column bases of the current entry, CX the
// entry within the row; in the epilogue BX walks the lanes' own
// entries and DX holds their own row bases. R14 selects the one-group
// loops.
TEXT ·rowLanesAVX2(SB), NOSPLIT, $0-81
	MOVQ pack+0(FP), SI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8
	MOVQ rows+16(FP), R9
	MOVQ nc+24(FP), R10
	MOVBLZX narrow+80(FP), R14
	MOVQ b+64(FP), AX
	MOVQ sums+72(FP), DX
	SETUP
	MOVQ bases+32(FP), R11
	MOVQ cbT+40(FP), R12
	TESTQ R10, R10
	JZ   rowdone
	TESTQ R9, R9
	JZ   rowown
	TESTQ R14, R14
	JNZ  row1

row:
	VMOVSD (R11), X9
	MOVQ R12, DI
	XORQ CX, CX

rowentry:
	ROWENTRY(rowskip)

rowskip:
	ADDQ $128, DI
	INCQ CX
	CMPQ CX, R10
	JLT  rowentry
	ADDQ R8, SI
	ADDQ $8, R11
	DECQ R9
	JNZ  row
	JMP  rowown

row1:
	VMOVSD (R11), X9
	MOVQ R12, DI
	XORQ CX, CX

rowentry1:
	ROWENTRY1(rowskip1)

rowskip1:
	ADDQ $128, DI
	INCQ CX
	CMPQ CX, R10
	JLT  rowentry1
	ADDQ R8, SI
	ADDQ $8, R11
	DECQ R9
	JNZ  row1

rowown:
	MOVQ vals+48(FP), BX
	TESTQ BX, BX
	JZ   rowdone
	MOVQ own+56(FP), DX
	MOVQ R12, DI
	TESTQ R14, R14
	JNZ  rowown1

rowownentry:
	OWNENTRY
	ADDQ $128, BX
	ADDQ $128, DI
	DECQ R10
	JNZ  rowownentry
	JMP  rowdone

rowown1:
	OWNENTRY1
	ADDQ $128, BX
	ADDQ $128, DI
	DECQ R10
	JNZ  rowown1

rowdone:
	MOVQ sums+72(FP), AX
	STORE
	RET

// func colLanesAVX2(pack *float64, stride, rows, nc int, cb, rbT, vals *float64, own, b, sums *[16]float64, narrow bool)
//
// Register plan: Y0–Y8 as in rowLanesAVX2, Y9 the broadcast column
// base, Y10 the broadcast entry, Y11–Y13 the lane terms. SI walks the
// pack rows, R11 the column bases, R12 the interleaved toggled row
// bases of the current row, BX the lanes' inserted entries of the
// current row, DX the inserted columns' bases, CX the entry within
// the row. R14 selects the one-group loops.
TEXT ·colLanesAVX2(SB), NOSPLIT, $0-81
	MOVQ pack+0(FP), SI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8
	MOVQ rows+16(FP), R9
	MOVQ nc+24(FP), R10
	MOVBLZX narrow+80(FP), R14
	MOVQ b+64(FP), AX
	MOVQ sums+72(FP), DX
	SETUP
	MOVQ cb+32(FP), R11
	MOVQ rbT+40(FP), R12
	MOVQ vals+48(FP), BX
	MOVQ own+56(FP), DX
	TESTQ R9, R9
	JZ   coldone
	TESTQ R14, R14
	JNZ  col1

col:
	XORQ CX, CX
	TESTQ R10, R10
	JZ   colitem

colentry:
	COLENTRY(colskip)

colskip:
	INCQ CX
	CMPQ CX, R10
	JLT  colentry

colitem:
	ITEMENTRY
	ADDQ R8, SI
	ADDQ $128, R12
	ADDQ $128, BX
	DECQ R9
	JNZ  col
	JMP  coldone

col1:
	XORQ CX, CX
	TESTQ R10, R10
	JZ   colitem1

colentry1:
	COLENTRY1(colskip1)

colskip1:
	INCQ CX
	CMPQ CX, R10
	JLT  colentry1

colitem1:
	ITEMENTRY1
	ADDQ R8, SI
	ADDQ $128, R12
	ADDQ $128, BX
	DECQ R9
	JNZ  col1

coldone:
	MOVQ sums+72(FP), AX
	STORE
	RET

// BASE sets one group of four lanes' toggled bases at off(DI) from
// their entries at off(SI): (s OP v)/n where v is specified, the
// unchanged base where it is NaN; s, n and the unchanged base are
// broadcast in Y0, Y1 and Y2.
#define BASE(off, OP) VMOVUPD off(SI), Y3; VCMPPD $3, Y3, Y3, Y4; OP Y3, Y0, Y5; VDIVPD Y1, Y5, Y5; VBLENDVPD Y4, Y2, Y5, Y5; VMOVUPD Y5, off(DI)

// func toggledBasesAVX2(vals, bases, cross *float64, members int, sub bool)
//
// Per member, (s + v)/n or (s − v)/n is one IEEE addition or
// subtraction and one division per lane, the scalar expression's
// operations on the same operands in the same order; the blend then
// picks the unchanged base for a NaN entry, as the scalar branch does.
TEXT ·toggledBasesAVX2(SB), NOSPLIT, $0-33
	MOVQ vals+0(FP), SI
	MOVQ bases+8(FP), DI
	MOVQ cross+16(FP), R8
	MOVQ members+24(FP), CX
	MOVBLZX sub+32(FP), AX
	TESTQ AX, AX
	JNZ  subbase

addbase:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	BASE(0, VADDPD)
	BASE(32, VADDPD)
	BASE(64, VADDPD)
	BASE(96, VADDPD)
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $24, R8
	DECQ CX
	JNZ  addbase
	VZEROUPPER
	RET

subbase:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	BASE(0, VSUBPD)
	BASE(32, VSUBPD)
	BASE(64, VSUBPD)
	BASE(96, VSUBPD)
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $24, R8
	DECQ CX
	JNZ  subbase
	VZEROUPPER
	RET
