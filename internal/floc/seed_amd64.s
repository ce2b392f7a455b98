//go:build !purego

// The AVX2 kernels of anchored seeding on complete matrices (see
// rangeRowsAVX2, carve1AVX2 and columnSumsAVX2 in seed_amd64.go).
//
// The row filters put four consecutive rows in one ymm register, read
// from the column-major mirror. A first pass tests every block on its
// first two (three) columns and lists the blocks with a lane alive,
// without branching on the outcome; a second pass carries each listed
// block's running extremes through the later columns until no lane is
// alive and writes the survivors' indices in ascending order. They
// return verdicts only, and every verdict is the scalar loop's
// (carveRowsColumns and selectRowsComplete in seed_anchored.go):
//
//   - Each lane forms the scalar loop's offsets x = v − sub[j] and
//     differences with the same VSUBPD operands, and the first test's
//     |·| is a sign-mask AND (the bit operation math.Abs is).
//   - The slack-1 first test is Go's min(|y−x|, |z−y|, |z−x|) ≤ width,
//     which is false when any of the three is NaN: three ≤ compares,
//     ORed, and ANDed with the lanes where none of them is unordered.
//   - The running extremes are updated with VMINPD/VMAXPD, whose
//     operand order makes each one the scalar branch: l = (d < l) ? d
//     : l, h = (d > h) ? d : h, and for the second-smallest l2 =
//     (t < l2) ? t : l2 with t = (l > d) ? l : d (the second-largest
//     mirrored). On an alive lane the extremes are ordered and hold no
//     NaN (its first offsets are ordered, and a NaN offset, possible
//     only in the range filter through a NaN column adjustment, is
//     ignored by both forms, VMINPD and VMAXPD returning their second
//     operand). So every extreme equals the scalar loop's as a value;
//     the two can differ only in the sign of a zero, where the scalar
//     loop keeps an earlier ±0 on a tie that VMINPD/VMAXPD replace, or
//     where its swap-based or builtin first-pair order picks the other
//     zero.
//   - No test reads that sign. Extremes enter only spans fl(a − b)
//     compared to the threshold. When a and b equal the scalar
//     operands up to the sign of zero, the span does too (x − ±0 = x
//     and ±0 − x = −x for x ≠ 0), and an IEEE compare ranks −0 and +0
//     equal, so each ≤ verdict is the scalar one.
//
// columnSumsAVX2 puts four adjacent columns of a row in one ymm
// register and keeps sixteen columns' sums in registers while the rows
// stream, so each column's sum still takes its terms in row order, one
// VSUBPD/VANDPD/VADDPD per scalar operation with the same operands: no
// FMA, no reassociation. A sum and its term commute bit for bit: the
// inputs are finite, so every NaN that can reach a sum is the default
// NaN an invalid operation produces, or, in the deviation sums, whose
// terms are all absolute values, its absolute value. Lanes past the
// last column are masked on every load and store (VMASKMOVPD), so no
// byte outside the row or the sums is touched. Go runs with MXCSR at
// its default (round to nearest, no flush-to-zero, no
// denormals-are-zero).
//
// Only VEX encodings are used, and VZEROUPPER precedes RET.

#include "textflag.h"

DATA seedIota<>+0(SB)/8, $0
DATA seedIota<>+8(SB)/8, $1
DATA seedIota<>+16(SB)/8, $2
DATA seedIota<>+24(SB)/8, $3
GLOBL seedIota<>(SB), RODATA|NOPTR, $32

DATA seedFour<>+0(SB)/8, $4
DATA seedFour<>+8(SB)/8, $4
DATA seedFour<>+16(SB)/8, $4
DATA seedFour<>+24(SB)/8, $4
GLOBL seedFour<>(SB), RODATA|NOPTR, $32

// OFFSETS loads into D the four rows' offsets in the column whose
// index is at SRC: D = col[r:r+4] − sub[j], with the mirror at SI, the
// column stride in bytes in R8, sub at R11 and the block's first row
// in BX. It clobbers DX and Y0.
#define OFFSETS(SRC, D) MOVQ SRC, DX; VBROADCASTSD (R11)(DX*8), Y0; IMULQ R8, DX; ADDQ SI, DX; VMOVUPD (DX)(BX*8), D; VSUBPD Y0, D, D

// COLUMN sets B to the base of the column whose index is at SRC and
// broadcasts its subtrahend into S.
#define COLUMN(SRC, B, S) MOVQ SRC, DX; VBROADCASTSD (R11)(DX*8), S; IMULQ R8, DX; LEAQ (SI)(DX*1), B

// SETUP loads the row filters' arguments: SI the mirror, R8 the column
// stride nr·8, R12 the rows of whole blocks, R9 cols, R11 sub, Y15 the
// width, DI out, Y14 the sign mask, and R14 the block list at
// out[nr − nr/4:] (see LIST); BX walks the blocks, and AX counts the
// listed blocks, then the rows written.
#define SETUP MOVQ mirror+0(FP), SI; MOVQ nr+8(FP), R8; MOVQ R8, R12; ANDQ $-4, R12; MOVQ R12, DX; SHRQ $2, DX; NEGQ DX; ADDQ R8, DX; SHLQ $3, R8; MOVQ cols+16(FP), R9; MOVQ sub+32(FP), R11; VBROADCASTSD width+40(FP), Y15; MOVQ out+48(FP), DI; LEAQ (DI)(DX*8), R14; MOVQ $0x7fffffffffffffff, AX; VMOVQ AX, X14; VPBROADCASTQ X14, Y14; XORQ AX, AX; XORQ BX, BX

// LIST appends the block at BX to the block list when any lane of the
// mask M passes, without a branch on the outcome: the entry is written
// unconditionally and the count advances by the carry NEGL sets for a
// nonzero mask. The list sits at the top of out, from index
// L = nr − ⌊nr/4⌋; the second pass writes row k of its survivors at
// index k < 4(j+1) while it reads entry j, and 4(j+1) ≤ L + j + 1 for
// every entry j < ⌊nr/4⌋, so no write reaches an entry still unread.
#define LIST(M) VMOVMSKPD M, DX; MOVQ BX, (R14)(AX*8); NEGL DX; ADCQ $0, AX; ADDQ $4, BX

// NEXTBLOCK starts the second pass's next listed block: BX its first
// row, or to done once R14 reaches the list's end in R12.
#define NEXTBLOCK(done) CMPQ R14, R12; JGE done; MOVQ (R14), BX; ADDQ $8, R14

// EMIT writes the rows of the block at BX whose lanes are set in the
// mask M to out at AX, ascending, and counts them.
#define EMIT(M, loop) VMOVMSKPD M, DX; loop: BSFQ DX, R13; ADDQ BX, R13; MOVQ R13, (DI)(AX*8); INCQ AX; LEAQ -1(DX), R13; ANDQ R13, DX; JNZ loop

// func rangeRowsAVX2(mirror *float64, nr int, cols *int, ncols int, sub *float64, width float64, out *int) int
//
// The first pass tests every block on its first pair of columns (bases
// in R13 and CX, subtrahends in Y9 and Y10) and lists the blocks with
// a row alive. The second pass recomputes a listed block's first pair
// and carries it through the later columns: Y4 the alive lanes, Y5
// and Y6 the running smallest and largest offsets, Y1–Y3 the current
// offsets and span, CX the column, R10 ncols.
TEXT ·rangeRowsAVX2(SB), NOSPLIT, $0-64
	SETUP
	COLUMN(0(R9), R13, Y9)
	COLUMN(8(R9), CX, Y10)

rangelist:
	CMPQ BX, R12
	JGE  rangelisted
	VMOVUPD (R13)(BX*8), Y1
	VSUBPD  Y9, Y1, Y1
	VMOVUPD (CX)(BX*8), Y2
	VSUBPD  Y10, Y2, Y2
	VSUBPD  Y1, Y2, Y3
	VANDPD  Y14, Y3, Y3
	VCMPPD  $0x12, Y15, Y3, Y3
	LIST(Y3)
	JMP     rangelist

rangelisted:
	LEAQ (R14)(AX*8), R12
	XORQ AX, AX
	MOVQ ncols+24(FP), R10

rangeblock:
	NEXTBLOCK(rangedone)
	OFFSETS(0(R9), Y1)
	OFFSETS(8(R9), Y2)
	VSUBPD Y1, Y2, Y3
	VANDPD Y14, Y3, Y3
	VCMPPD $0x12, Y15, Y3, Y4
	VMINPD Y1, Y2, Y5
	VMAXPD Y2, Y1, Y6
	MOVQ   $2, CX

rangecol:
	CMPQ CX, R10
	JGE  rangeemit
	OFFSETS((R9)(CX*8), Y1)
	VMINPD    Y5, Y1, Y5
	VMAXPD    Y6, Y1, Y6
	VSUBPD    Y5, Y6, Y3
	VCMPPD    $0x12, Y15, Y3, Y3
	VANDPD    Y3, Y4, Y4
	VMOVMSKPD Y4, DX
	TESTQ     DX, DX
	JZ        rangeblock
	INCQ      CX
	JMP       rangecol

rangeemit:
	EMIT(Y4, rangeemitrow)
	JMP rangeblock

rangedone:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// FIRST3 sets Y13 to the lanes whose first three offsets, in Y1–Y3,
// pass the slack-1 first test, clobbering Y4–Y8.
#define FIRST3 VSUBPD Y1, Y2, Y4; VANDPD Y14, Y4, Y4; VSUBPD Y2, Y3, Y5; VANDPD Y14, Y5, Y5; VSUBPD Y1, Y3, Y6; VANDPD Y14, Y6, Y6; VCMPPD $7, Y5, Y4, Y7; VCMPPD $7, Y6, Y6, Y8; VANDPD Y8, Y7, Y7; VCMPPD $0x12, Y15, Y4, Y4; VCMPPD $0x12, Y15, Y5, Y5; VCMPPD $0x12, Y15, Y6, Y6; VORPD Y5, Y4, Y4; VORPD Y6, Y4, Y4; VANDPD Y7, Y4, Y13

// func carve1AVX2(mirror *float64, nr int, cols *int, ncols int, sub *float64, width float64, out *int) int
//
// The passes of rangeRowsAVX2, on the first three columns (bases in
// R13, CX and R10, subtrahends in Y9–Y11 during the first pass). Y13
// the alive lanes; Y9, Y10, Y11 and Y12 the running smallest,
// second-smallest, second-largest and largest offsets; Y1–Y8 the
// current offsets, spans and compares, CX the column, R10 ncols.
TEXT ·carve1AVX2(SB), NOSPLIT, $0-64
	SETUP
	COLUMN(0(R9), R13, Y9)
	COLUMN(8(R9), CX, Y10)
	COLUMN(16(R9), R10, Y11)

carvelist:
	CMPQ BX, R12
	JGE  carvelisted
	VMOVUPD (R13)(BX*8), Y1
	VSUBPD  Y9, Y1, Y1
	VMOVUPD (CX)(BX*8), Y2
	VSUBPD  Y10, Y2, Y2
	VMOVUPD (R10)(BX*8), Y3
	VSUBPD  Y11, Y3, Y3
	FIRST3
	LIST(Y13)
	JMP     carvelist

carvelisted:
	LEAQ (R14)(AX*8), R12
	XORQ AX, AX
	MOVQ ncols+24(FP), R10

carveblock:
	NEXTBLOCK(carvedone)
	OFFSETS(0(R9), Y1)
	OFFSETS(8(R9), Y2)
	OFFSETS(16(R9), Y3)
	FIRST3
	VMINPD  Y1, Y2, Y4
	VMAXPD  Y2, Y1, Y5
	VMINPD  Y4, Y3, Y9
	VMAXPD  Y5, Y3, Y12
	VMINPD  Y5, Y3, Y6
	VMAXPD  Y4, Y6, Y10
	VMOVUPD Y10, Y11
	MOVQ    $3, CX

carvecol:
	CMPQ CX, R10
	JGE  carveemit
	OFFSETS((R9)(CX*8), Y1)
	VMAXPD    Y1, Y9, Y2
	VMINPD    Y10, Y2, Y10
	VMINPD    Y9, Y1, Y9
	VMINPD    Y1, Y12, Y3
	VMAXPD    Y11, Y3, Y11
	VMAXPD    Y12, Y1, Y12
	VSUBPD    Y9, Y11, Y4
	VSUBPD    Y10, Y12, Y5
	VCMPPD    $0x12, Y15, Y4, Y4
	VCMPPD    $0x12, Y15, Y5, Y5
	VORPD     Y5, Y4, Y4
	VANDPD    Y4, Y13, Y13
	VMOVMSKPD Y13, DX
	TESTQ     DX, DX
	JZ        carveblock
	INCQ      CX
	JMP       carvecol

carveemit:
	EMIT(Y13, carveemitrow)
	JMP carveblock

carvedone:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// ROWBASE sets DX to the row rows[CX] of the pass's columns, from the
// pass base SI and the row stride R8.
#define ROWBASE MOVQ (R9)(CX*8), DX; IMULQ R8, DX; ADDQ SI, DX

// OFFROW broadcasts off[rows[CX]] into Y13 and then does ROWBASE.
#define OFFROW MOVQ (R9)(CX*8), DX; VBROADCASTSD (R11)(DX*8), Y13; IMULQ R8, DX; ADDQ SI, DX

// VALUE, CENTERED and DEVIATION add one group's term to its sum S: v,
// v − off or |v − off − mean|, with v the group's entries at off(DX)
// under the lane mask M and the group's means in MEAN.
#define VALUE(off, M, S) VMASKMOVPD off(DX), M, Y8; VADDPD Y8, S, S
#define CENTERED(off, M, S) VMASKMOVPD off(DX), M, Y8; VSUBPD Y13, Y8, Y8; VADDPD Y8, S, S
#define DEVIATION(off, M, MEAN, S) VMASKMOVPD off(DX), M, Y8; VSUBPD Y13, Y8, Y8; VSUBPD MEAN, Y8, Y8; VANDPD Y14, Y8, Y8; VADDPD Y8, S, S

// func columnSumsAVX2(data *float64, nc int, rows *int, nrows int, off, mean, dst *float64, kind int)
//
// Passes of sixteen columns, BX the pass's first column: SI, DI and R12
// point at it in the first row, dst and mean. Y0–Y3 the four groups'
// sums, Y4–Y7 their lane masks (column < nc), Y9–Y12 their means, Y8
// the term, Y13 the row's offset, Y14 the sign mask, Y15 nc; CX walks
// the rows.
TEXT ·columnSumsAVX2(SB), NOSPLIT, $0-64
	MOVQ data+0(FP), SI
	MOVQ nc+8(FP), R13
	MOVQ R13, R8
	SHLQ $3, R8
	MOVQ rows+16(FP), R9
	MOVQ nrows+24(FP), R10
	MOVQ off+32(FP), R11
	MOVQ mean+40(FP), R12
	MOVQ dst+48(FP), DI
	MOVQ kind+56(FP), R14
	MOVQ $0x7fffffffffffffff, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	VMOVQ R13, X15
	VPBROADCASTQ X15, Y15
	XORQ BX, BX

colpass:
	CMPQ BX, R13
	JGE  coldone
	VMOVQ        BX, X8
	VPBROADCASTQ X8, Y8
	VPADDQ       seedIota<>(SB), Y8, Y8
	VPCMPGTQ     Y8, Y15, Y4
	VPADDQ       seedFour<>(SB), Y8, Y8
	VPCMPGTQ     Y8, Y15, Y5
	VPADDQ       seedFour<>(SB), Y8, Y8
	VPCMPGTQ     Y8, Y15, Y6
	VPADDQ       seedFour<>(SB), Y8, Y8
	VPCMPGTQ     Y8, Y15, Y7
	VMASKMOVPD   0(DI), Y4, Y0
	VMASKMOVPD   32(DI), Y5, Y1
	VMASKMOVPD   64(DI), Y6, Y2
	VMASKMOVPD   96(DI), Y7, Y3
	XORQ         CX, CX
	TESTQ        R10, R10
	JZ           colstore
	CMPQ         R14, $1
	JEQ          centered
	JGT          deviation

value:
	ROWBASE
	VALUE(0, Y4, Y0)
	VALUE(32, Y5, Y1)
	VALUE(64, Y6, Y2)
	VALUE(96, Y7, Y3)
	INCQ CX
	CMPQ CX, R10
	JLT  value
	JMP  colstore

centered:
	OFFROW
	CENTERED(0, Y4, Y0)
	CENTERED(32, Y5, Y1)
	CENTERED(64, Y6, Y2)
	CENTERED(96, Y7, Y3)
	INCQ CX
	CMPQ CX, R10
	JLT  centered
	JMP  colstore

deviation:
	VMASKMOVPD 0(R12), Y4, Y9
	VMASKMOVPD 32(R12), Y5, Y10
	VMASKMOVPD 64(R12), Y6, Y11
	VMASKMOVPD 96(R12), Y7, Y12

deviationrow:
	OFFROW
	DEVIATION(0, Y4, Y9, Y0)
	DEVIATION(32, Y5, Y10, Y1)
	DEVIATION(64, Y6, Y11, Y2)
	DEVIATION(96, Y7, Y12, Y3)
	INCQ CX
	CMPQ CX, R10
	JLT  deviationrow

colstore:
	VMASKMOVPD Y0, Y4, 0(DI)
	VMASKMOVPD Y1, Y5, 32(DI)
	VMASKMOVPD Y2, Y6, 64(DI)
	VMASKMOVPD Y3, Y7, 96(DI)
	ADDQ       $16, BX
	ADDQ       $128, SI
	ADDQ       $128, DI
	ADDQ       $128, R12
	JMP        colpass

coldone:
	VZEROUPPER
	RET
