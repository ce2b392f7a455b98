//go:build !purego

// The AVX2 kernels of anchored seeding on complete matrices (see
// rangeRowsAVX2, carveSAVX2 and columnSumsAVX2 in seed_amd64.go).
//
// The row filters put four consecutive rows in one ymm register, read
// from the column-major mirror, and return verdicts only: the rows
// kept, in ascending order. Every verdict is the scalar loop's
// (carveRowsColumns, clumpRows and selectRowsComplete in
// seed_anchored.go). Each lane forms the scalar loop's offsets x =
// v − sub[j] and differences with the same VSUBPD operands, and a
// |·| is a sign-mask AND (the bit operation math.Abs is).
//
// rangeRowsAVX2 (the slack-0 carve and the row re-selection's range
// filter) runs two passes. The first tests every block on its first
// two columns and lists the blocks with a lane alive, without
// branching on the outcome; the second carries each listed block's
// running extremes through the later columns until no lane is alive.
//
//   - The extremes are updated with VMINPD/VMAXPD, whose operand order
//     makes each one the scalar branch: l = (d < l) ? d : l, h = (d >
//     h) ? d : h. On an alive lane the extremes are ordered and hold no
//     NaN (its first offsets are ordered, and a NaN offset, possible
//     only through a NaN column adjustment, is ignored by both forms,
//     VMINPD and VMAXPD returning their second operand). So every
//     extreme equals the scalar loop's as a value; the two can differ
//     only in the sign of a zero, where the scalar loop keeps an
//     earlier ±0 on a tie that VMINPD/VMAXPD replace, or where its
//     swap-based first-pair order picks the other zero.
//   - No test reads that sign. Extremes enter only spans fl(a − b)
//     compared to the threshold. When a and b equal the scalar
//     operands up to the sign of zero, the span does too (x − ±0 = x,
//     ±0 − x = −x for x ≠ 0, and ±0 − ±0 is a zero), and an IEEE
//     compare ranks −0 and +0 equal, so each ≤ verdict is the scalar
//     one.
//
// carveSAVX2 (the carve at slack s = 1 to 5) runs one pass: every
// block through every column, then one window test. Each lane keeps
// its s+1 smallest offsets L₀ ≤ … ≤ Lₛ and s+1 largest H₀ ≥ … ≥ Hₛ,
// from sentinels +Inf and −Inf, inserting each offset d top down,
// Lₖ = min(Lₖ, max(Lₖ₋₁, d)) and Hₖ = max(Hₖ, min(Hₖ₋₁, d)), which
// reads only the slots' old values, so no slot waits on another. A row
// passes iff Hₛ₋ᵢ − Lᵢ ≤ width for some i in 0..s. That is clumps'
// test without its sort:
//
//   - Offsets on a complete matrix are finite or ±Inf (a finite entry
//     minus a finite anchor entry overflows at worst), never NaN. On
//     NaN-free input this min/max network keeps order statistics: once
//     all ncols ≥ s+1 offsets are in, Lᵢ is the offsets' i-th smallest
//     and Hᵢ their i-th largest, as values (a ±Inf offset equals the
//     sentinel it displaces).
//   - clumps sorts the same offsets, x[0] ≤ … ≤ x[n−1], and tests
//     x[i+need−1] − x[i] ≤ width for i in 0..s, with need = n − s. Its
//     operands are Hₛ₋ᵢ = x[n−1−(s−i)] and Lᵢ = x[i], subtracted in the
//     same order.
//   - VMINPD/VMAXPD can only swap which ±0 holds a slot, where a tie
//     of −0 and +0 meets an instruction that returns its second
//     operand, and, as above, no span compared against the width can
//     see that.
//   - Inf − Inf = NaN fails the ordered ≤ compare, as it fails Go's
//     <=, so a window whose ends are the same infinity never passes,
//     in either; with a finite width, no window holding an infinite
//     offset passes at all.
//
// A lane could be dropped once no m − s of its first m offsets fit a
// window, since a final clump holds at least m − s of them; but a drop
// test after every column, branching to the next block once no lane is
// alive, measured 1.5–1.7× slower on the yeast stand-in's carves,
// where most blocks keep a row alive to the last columns. So every row
// reads every column, and the pass has no branch on any verdict: KEEP4
// writes each block's rows unconditionally and advances the count by
// the verdict bits.
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

DATA seedPosInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL seedPosInf<>(SB), RODATA|NOPTR, $8

DATA seedNegInf<>+0(SB)/8, $0xfff0000000000000
GLOBL seedNegInf<>(SB), RODATA|NOPTR, $8

// OFFSETS loads into D the four rows' offsets in the column whose
// index is at SRC: D = col[r:r+4] − sub[j], with the mirror at SI, the
// column stride in bytes in R8, sub at R11 and the block's first row
// in BX. It clobbers DX and Y0.
#define OFFSETS(SRC, D) MOVQ SRC, DX; VBROADCASTSD (R11)(DX*8), Y0; IMULQ R8, DX; ADDQ SI, DX; VMOVUPD (DX)(BX*8), D; VSUBPD Y0, D, D

// COLUMN sets B to the base of the column whose index is at SRC and
// broadcasts its subtrahend into S.
#define COLUMN(SRC, B, S) MOVQ SRC, DX; VBROADCASTSD (R11)(DX*8), S; IMULQ R8, DX; LEAQ (SI)(DX*1), B

// SETUP loads rangeRowsAVX2's arguments: SI the mirror, R8 the column
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

// SLOT updates one pair of order-statistic slots of the slack-s carve
// with the offset d in Y1: the k-th smallest L = min(L, max(LB, d))
// from the (k−1)-th LB, and the k-th largest H = max(H, min(HB, d))
// from the (k−1)-th HB. Both read LB and HB before they are updated,
// so the slots are updated top down and no slot waits for another's
// new value. SLOT0 updates the smallest and largest offsets.
#define SLOT(L, LB, H, HB) VMAXPD Y1, LB, Y0; VMINPD Y0, L, L; VMINPD Y1, HB, Y0; VMAXPD Y0, H, H
#define SLOT0 VMINPD Y1, Y2, Y2; VMAXPD Y1, Y8, Y8

// INSERTs inserts d into the s+1 smallest (Y2 up) and s+1 largest (Y8
// up) offsets.
#define INSERT1 SLOT(Y3, Y2, Y9, Y8); SLOT0
#define INSERT2 SLOT(Y4, Y3, Y10, Y9); INSERT1
#define INSERT3 SLOT(Y5, Y4, Y11, Y10); INSERT2
#define INSERT4 SLOT(Y6, Y5, Y12, Y11); INSERT3
#define INSERT5 SLOT(Y7, Y6, Y13, Y12); INSERT4

// SPAN ORs into Y1 the lanes whose window from L to H fits the width,
// H − L ≤ width; SPAN1 sets Y1 to them.
#define SPAN1(H, L) VSUBPD L, H, Y1; VCMPPD $0x12, Y15, Y1, Y1
#define SPAN(H, L) VSUBPD L, H, Y0; VCMPPD $0x12, Y15, Y0, Y0; VORPD Y0, Y1, Y1

// WINDOWSs sets Y1 to the lanes with a window of need = ncols − s
// sorted offsets within width: H(s−i) − L(i) ≤ width for some i ≤ s.
#define WINDOWS1 SPAN1(Y9, Y2); SPAN(Y8, Y3)
#define WINDOWS2 SPAN1(Y10, Y2); SPAN(Y9, Y3); SPAN(Y8, Y4)
#define WINDOWS3 SPAN1(Y11, Y2); SPAN(Y10, Y3); SPAN(Y9, Y4); SPAN(Y8, Y5)
#define WINDOWS4 SPAN1(Y12, Y2); SPAN(Y11, Y3); SPAN(Y10, Y4); SPAN(Y9, Y5); SPAN(Y8, Y6)
#define WINDOWS5 SPAN1(Y13, Y2); SPAN(Y12, Y3); SPAN(Y11, Y4); SPAN(Y10, Y5); SPAN(Y9, Y6); SPAN(Y8, Y7)

// SENTINELS empties the slots of the block at BX: +Inf in the smallest
// (Y2–Y7), −Inf in the largest (Y8–Y13), and CX to the first column.
#define SENTINELS VBROADCASTSD seedPosInf<>(SB), Y2; VMOVAPD Y2, Y3; VMOVAPD Y2, Y4; VMOVAPD Y2, Y5; VMOVAPD Y2, Y6; VMOVAPD Y2, Y7; VBROADCASTSD seedNegInf<>(SB), Y8; VMOVAPD Y8, Y9; VMOVAPD Y8, Y10; VMOVAPD Y8, Y11; VMOVAPD Y8, Y12; VMOVAPD Y8, Y13; XORQ CX, CX

// KEEP4 writes the block's four row indices to out at AX and advances
// AX past those whose lane is set in Y1, without a branch on the
// outcome: a failed lane's entry is overwritten by the next one or
// lies past the count. AX never exceeds the row written, so no write
// leaves out.
#define KEEP4 VMOVMSKPD Y1, DX; MOVQ BX, (DI)(AX*8); BTQ $0, DX; ADCQ $0, AX; LEAQ 1(BX), R13; MOVQ R13, (DI)(AX*8); BTQ $1, DX; ADCQ $0, AX; LEAQ 2(BX), R13; MOVQ R13, (DI)(AX*8); BTQ $2, DX; ADCQ $0, AX; LEAQ 3(BX), R13; MOVQ R13, (DI)(AX*8); BTQ $3, DX; ADCQ $0, AX

// CARVES is carveSAVX2's loop for one slack: every block, every
// column's offsets inserted, then the window test and KEEP4.
#define CARVES(INSERT, WINDOWS, block, col) block: SENTINELS; col: OFFSETS((R9)(CX*8), Y1); INSERT; INCQ CX; CMPQ CX, R10; JLT col; WINDOWS; KEEP4; ADDQ $4, BX; CMPQ BX, R12; JLT block; JMP carvesdone

// func carveSAVX2(mirror *float64, nr int, cols *int, ncols int, sub *float64, width float64, slack int, out *int) int
//
// One pass over the blocks, each through every column: Y2–Y7 the
// block's smallest offsets in ascending order, Y8–Y13 its largest in
// descending order (slots past the slack unused), Y1 the current
// offset and then the window verdicts, Y0 a temporary, Y15 the width;
// CX the column, R10 ncols, AX the rows written. The slack, 1 to 5,
// selects the loop.
TEXT ·carveSAVX2(SB), NOSPLIT, $0-72
	MOVQ mirror+0(FP), SI
	MOVQ nr+8(FP), R8
	MOVQ R8, R12
	ANDQ $-4, R12
	SHLQ $3, R8
	MOVQ cols+16(FP), R9
	MOVQ ncols+24(FP), R10
	MOVQ sub+32(FP), R11
	VBROADCASTSD width+40(FP), Y15
	MOVQ slack+48(FP), R14
	MOVQ out+56(FP), DI
	XORQ AX, AX
	XORQ BX, BX
	TESTQ R12, R12
	JZ   carvesdone
	CMPQ R14, $2
	JLT  carves1
	JEQ  carves2
	CMPQ R14, $4
	JLT  carves3
	JEQ  carves4
	JMP  carves5

	CARVES(INSERT1, WINDOWS1, carves1, carves1col)
	CARVES(INSERT2, WINDOWS2, carves2, carves2col)
	CARVES(INSERT3, WINDOWS3, carves3, carves3col)
	CARVES(INSERT4, WINDOWS4, carves4, carves4col)
	CARVES(INSERT5, WINDOWS5, carves5, carves5col)

carvesdone:
	MOVQ AX, ret+64(FP)
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
