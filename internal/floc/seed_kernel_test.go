package floc

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"deltacluster/internal/cpu"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// defaultNaN is the NaN an invalid operation (Inf − Inf, 0/0) produces
// on amd64, the only NaN seeding's arithmetic can create.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// kernelEntry draws one entry of a kernel test matrix: lattice values
// with ties and signed zeros, subnormals, and, with huge set, values
// near ±1e308 whose offsets overflow to ±Inf.
func kernelEntry(rng *stats.RNG, scale float64, huge bool) float64 {
	switch rng.Intn(16) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		if huge {
			return []float64{1.7e308, -1.7e308, 1e308, -1e308}[rng.Intn(4)]
		}
	case 2:
		return float64(rng.Intn(9)-4) * 0x1p-1074
	}
	return float64(rng.Intn(9)-4) * scale
}

// kernelSpecial draws a per-row offset or per-column adjustment: an
// entry, or, with special set, sometimes one of the non-finite values a
// column adjustment or row offset computed from overflowing sums can
// take.
func kernelSpecial(rng *stats.RNG, scale float64, special bool) float64 {
	if special && rng.Intn(10) == 0 {
		return []float64{math.Inf(1), math.Inf(-1), defaultNaN}[rng.Intn(3)]
	}
	return kernelEntry(rng, scale, false)
}

// kernelCase is one input of the seeding kernels: a complete matrix,
// the carved columns with their subtrahends (an anchor row, or column
// adjustments), a threshold, and the member rows with the row offsets
// and column means refine's column sums read.
type kernelCase struct {
	m         *matrix.Matrix
	cols      []int
	sub       []float64
	width     float64
	rows      []int
	off, mean []float64
}

// drawKernelCase draws a kernelCase with nr rows and nc columns and 2 to
// min(17, nc) carved columns in random order. A third of the cases
// hold entries near ±1e308, and a third non-finite subtrahends, row
// offsets and column means. The threshold is 0, a lattice width,
// infinite, subnormal, or a span of a random row's first two offsets
// moved by up to three ulps either way, so that rows sit at and just
// past it.
func drawKernelCase(rng *stats.RNG, nr, nc int) kernelCase {
	scale := []float64{1, 0.1}[rng.Intn(2)]
	huge, special := rng.Bool(1.0/3), rng.Bool(1.0/3)
	data := make([][]float64, nr)
	for i := range data {
		data[i] = make([]float64, nc)
		for j := range data[i] {
			data[i][j] = kernelEntry(rng, scale, huge)
		}
	}
	m, err := matrix.NewFromRows(data)
	if err != nil {
		panic(err)
	}
	perm := rng.Perm(nc)
	kc := kernelCase{m: m, cols: perm[:2+rng.Intn(min(17, nc)-1)]}
	if rng.Bool(0.5) {
		kc.sub = slices.Clone(m.RowView(rng.Intn(nr)))
	} else {
		kc.sub = make([]float64, nc)
		for j := range kc.sub {
			kc.sub[j] = kernelSpecial(rng, scale, special)
		}
	}
	switch rng.Intn(5) {
	case 0:
		kc.width = 0
	case 1:
		kc.width = float64(rng.Intn(6)) * scale / 2
	case 2:
		kc.width = []float64{math.Inf(1), 0x1p-1074, 3 * 0x1p-1074}[rng.Intn(3)]
	default:
		r, j0, j1 := rng.Intn(nr), kc.cols[0], kc.cols[1]
		kc.width = math.Abs((m.RowView(r)[j1] - kc.sub[j1]) - (m.RowView(r)[j0] - kc.sub[j0]))
		steps, dir := rng.Intn(7)-3, math.Inf(1)
		if steps < 0 {
			steps, dir = -steps, math.Inf(-1)
		}
		for ; steps > 0; steps-- {
			kc.width = math.Nextafter(kc.width, dir)
		}
	}
	kc.rows = ascendingSubset(rng, nr, rng.Float64())
	kc.off = make([]float64, nr)
	for i := range kc.off {
		kc.off[i] = kernelSpecial(rng, scale, special)
	}
	kc.mean = make([]float64, nc)
	for j := range kc.mean {
		kc.mean[j] = kernelSpecial(rng, scale, special)
	}
	return kc
}

// kernelStats counts what a kernel check exercised: rows the carve
// kept at slack 0 and 1, and at slack 2 and up, kept rows with a span
// exactly at the threshold (the first two offsets' at slack 0 and 1, a
// passing window's at slack 2 and up), overflowed offsets, and finite
// and non-finite column sums.
type kernelStats struct {
	kept, atWidth, keptWide, atWidthWide, overflowed, finite, nonFinite int
}

// checkSeedKernels runs every AVX2 seeding kernel on kc and fails
// unless it returns exactly what the portable code does: the carve at
// slack 0 the Go loop's rows (the slack-0 loop with the column
// adjustments as subtrahends is the row re-selection's range filter,
// so it takes every subtrahend, NaN included); the carve at every
// slack from 1 to carveMaxSlack that leaves need ≥ 1 the row-wise
// carve's rows, as does the Go slack-1 loop under a finite threshold,
// under the subtrahends with each NaN read as +Inf (an anchor row's
// offsets are never NaN); the whole row re-selection the Go loops'
// rows; and every kind of column sum the Go loops' sums, bit for bit.
func checkSeedKernels(t testing.TB, kc kernelCase) (st kernelStats) {
	t.Helper()
	m, nr, nc := kc.m, kc.m.Rows(), kc.m.Cols()
	scr := newSeedScratch(m)
	if !scr.complete {
		t.Fatal("kernel test matrix is not complete")
	}
	carved := func(sub []float64, r int) []float64 {
		xs := make([]float64, len(kc.cols))
		for k, j := range kc.cols {
			xs[k] = m.RowView(r)[j] - sub[j]
		}
		return xs
	}
	want := slices.Clone(scr.carveRowsColumns(m, kc.sub, kc.cols, kc.width, 0, false, scr.carvedRow[:nr]))
	got := scr.carveRowsColumns(m, kc.sub, kc.cols, kc.width, 0, true, scr.rows[:nr])
	if !slices.Equal(got, want) {
		t.Fatalf("%d×%d, cols %v, width %v (%x), slack 0: AVX2 carve kept rows %v, the Go loop %v",
			nr, nc, kc.cols, kc.width, math.Float64bits(kc.width), got, want)
	}
	st.kept += len(want)
	for _, r := range want {
		if xs := carved(kc.sub, r); math.Abs(xs[1]-xs[0]) == kc.width {
			st.atWidth++
		}
	}
	anchor := slices.Clone(kc.sub)
	for j, v := range anchor {
		if math.IsNaN(v) {
			anchor[j] = math.Inf(1)
		}
	}
	for slack := 1; slack <= carveMaxSlack && slack < len(kc.cols); slack++ {
		need := len(kc.cols) - slack
		want := slices.Clone(scr.clumpRows(m, anchor, kc.cols, kc.width, need, 0, scr.carvedRow[:0]))
		got := scr.carveRowsColumns(m, anchor, kc.cols, kc.width, slack, true, scr.rows[:nr])
		if !slices.Equal(got, want) {
			t.Fatalf("%d×%d, cols %v, width %v (%x), slack %d: AVX2 carve kept rows %v, the row-wise carve %v",
				nr, nc, kc.cols, kc.width, math.Float64bits(kc.width), slack, got, want)
		}
		if slack == 1 && len(kc.cols) >= 3 && !math.IsInf(kc.width, 1) {
			if got := scr.carveRowsColumns(m, anchor, kc.cols, kc.width, slack, false, scr.rows[:nr]); !slices.Equal(got, want) {
				t.Fatalf("%d×%d, cols %v, width %v (%x), slack 1: the Go loop kept rows %v, the row-wise carve %v",
					nr, nc, kc.cols, kc.width, math.Float64bits(kc.width), got, want)
			}
		}
		if slack == 1 {
			st.kept += len(want)
			continue
		}
		st.keptWide += len(want)
		for _, r := range want {
			xs := carved(anchor, r)
			slices.Sort(xs)
			for i := 0; i+need <= len(xs); i++ {
				if xs[i+need-1]-xs[i] == kc.width {
					st.atWidthWide++
					break
				}
			}
		}
	}
	for r := 0; r < nr; r++ {
		for _, x := range carved(kc.sub, r) {
			if math.IsInf(x, 0) {
				st.overflowed++
			}
		}
	}

	copy(scr.colAdj, kc.sub)
	delta := kc.width / 2
	want = slices.Clone(scr.selectRowsComplete(m, kc.cols, delta, false))
	if got := scr.selectRowsComplete(m, kc.cols, delta, true); !slices.Equal(got, want) {
		t.Fatalf("%d×%d, cols %v, δ %v: AVX2 row re-selection kept rows %v, the Go loops %v", nr, nc, kc.cols, delta, got, want)
	}

	copy(scr.rowOff, kc.off)
	copy(scr.colMean, kc.mean)
	for kind := colValues; kind <= colDeviations; kind++ {
		want := make([]float64, nc)
		clear(scr.colCnt)
		scr.columnSums(m, kc.rows, kind, want, false)
		wantCnt := slices.Clone(scr.colCnt)
		got := make([]float64, nc)
		clear(scr.colCnt)
		scr.columnSums(m, kc.rows, kind, got, true)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) || scr.colCnt[j] != wantCnt[j] {
				t.Fatalf("%d×%d, rows %v, kind %d: column %d AVX2 sum %v (%x) over %d terms, the Go loops %v (%x) over %d",
					nr, nc, kc.rows, kind, j, got[j], math.Float64bits(got[j]), scr.colCnt[j],
					want[j], math.Float64bits(want[j]), wantCnt[j])
			}
			if math.IsInf(want[j], 0) || math.IsNaN(want[j]) {
				st.nonFinite++
			} else {
				st.finite++
			}
		}
	}
	return st
}

// TestSeedKernelsAgree checks the AVX2 seeding kernels bit for bit
// against the portable code (checkSeedKernels) on complete matrices of
// 1 to 41 rows (row counts not divisible by 4, and fewer than 4) and 3
// to 40 columns (column sums over one to three sixteen-column passes),
// with 2 to 17 carved columns, so the carve runs at every slack from 0
// to 5 on carves from 2 to 17 columns; entries on a lattice with
// signed zeros, subnormals and values near ±1e308; subtrahends that
// include ±Inf and NaN; thresholds of 0, subnormal, infinite, and at
// and a few ulps past a row's span. It requires that enough rows were
// kept, at slack 0 and 1 and at slack 2 and up, sat exactly at the
// threshold and overflowed, and that enough column sums were finite
// and enough infinite or NaN, for the equalities to mean something.
func TestSeedKernelsAgree(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 kernels on this CPU or build")
	}
	rng := stats.NewRNG(41)
	var total kernelStats
	for trial := 0; trial < 3000; trial++ {
		nr, nc := 1+rng.Intn(41), 3+rng.Intn(38)
		st := checkSeedKernels(t, drawKernelCase(rng, nr, nc))
		total.kept += st.kept
		total.atWidth += st.atWidth
		total.keptWide += st.keptWide
		total.atWidthWide += st.atWidthWide
		total.overflowed += st.overflowed
		total.finite += st.finite
		total.nonFinite += st.nonFinite
	}
	if total.kept < 5000 || total.atWidth < 500 || total.keptWide < 20000 || total.atWidthWide < 2000 ||
		total.overflowed < 5000 || total.finite < 50000 || total.nonFinite < 10000 {
		t.Errorf("%+v; want at least 5000 rows kept at slack 0 and 1 and 500 of them at the threshold, 20000 kept at slack 2 and up and 2000 of them at the threshold, 5000 overflowed offsets, 50000 finite and 10000 non-finite column sums", total)
	}
	t.Logf("%+v", total)
}

// FuzzSeedKernels runs checkSeedKernels on cases drawn from the fuzzed
// seed and shape, with the fuzzed threshold and the fuzzed bytes as
// entries, eight per value; a NaN entry, which would mark the entry
// missing, is read as +0.
func FuzzSeedKernels(f *testing.F) {
	if !cpu.AVX2 {
		f.Skip("no AVX2 kernels on this CPU or build")
	}
	f.Add(int64(1), uint8(13), uint8(17), 0.5, []byte{})
	f.Add(int64(2), uint8(4), uint8(3), 0.0, []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(int64(3), uint8(40), uint8(33), math.Inf(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Add(int64(4), uint8(7), uint8(5), 0x1p-1074, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint8, width float64, vals []byte) {
		rng := stats.NewRNG(seed)
		nr, nc := 1+int(rows)%48, 3+int(cols)%38
		kc := drawKernelCase(rng, nr, nc)
		for k := 0; k+8 <= len(vals) && k/8 < nr*nc; k += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(vals[k:]))
			if math.IsNaN(v) {
				v = 0
			}
			kc.m.Set(k/8/nc, k/8%nc, v)
		}
		kc.width = width
		checkSeedKernels(t, kc)
	})
}

// TestColumnSumsPasses pins the column-sum kernel's sixteen-column
// passes and lane masks: on rows whose entries are distinct powers of
// two, every column's sum must be exactly its own entries' sum, for
// every width from 1 to 40 columns, so a lane that read or wrote a
// neighbouring column, or a masked lane that leaked, shows.
func TestColumnSumsPasses(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2 kernels on this CPU or build")
	}
	for nc := 1; nc <= 40; nc++ {
		data := make([][]float64, 5)
		for i := range data {
			data[i] = make([]float64, nc)
			for j := range data[i] {
				data[i][j] = math.Ldexp(1, 6*j+i)
			}
		}
		m, err := matrix.NewFromRows(data)
		if err != nil {
			t.Fatal(err)
		}
		scr := newSeedScratch(m)
		got := make([]float64, nc+1)
		got[nc] = 42 // past the last column: must stay untouched
		scr.columnSums(m, []int{0, 2, 4}, colValues, got[:nc], true)
		for j := 0; j < nc; j++ {
			if want := math.Ldexp(1, 6*j) + math.Ldexp(1, 6*j+2) + math.Ldexp(1, 6*j+4); got[j] != want {
				t.Fatalf("%d columns: column %d sums to %v, want %v", nc, j, got[j], want)
			}
		}
		if got[nc] != 42 {
			t.Fatalf("%d columns: the kernel wrote past the last column", nc)
		}
	}
}
