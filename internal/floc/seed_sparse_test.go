package floc

import (
	"math"
	"slices"
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// The dense reference kernels below are the seeding kernels as they
// were before they moved onto the scratch's specified-entry lists:
// every pass scans whole RowView rows or ColView columns and skips the
// NaNs. They exist only to pin the list kernels to them. The row
// carve's dense reference is carveRowsReference (seed_anchored_test.go).

// denseCarveCols is carveCols over whole rows.
func denseCarveCols(m *matrix.Matrix, i1, i2 int, delta float64, minCols int) []int {
	row1 := m.RowView(i1)
	row2 := m.RowView(i2)
	var diffs []float64
	for j := 0; j < m.Cols(); j++ {
		if !math.IsNaN(row1[j]) && !math.IsNaN(row2[j]) {
			diffs = append(diffs, row1[j]-row2[j])
		}
	}
	if len(diffs) < minCols {
		return nil
	}
	center, count := densestWindow(diffs, 2*delta)
	if count < minCols {
		return nil
	}
	var cols []int
	for j := 0; j < m.Cols(); j++ {
		if math.IsNaN(row1[j]) || math.IsNaN(row2[j]) {
			continue
		}
		if math.Abs(row1[j]-row2[j]-center) <= 1.5*delta {
			cols = append(cols, j)
		}
	}
	return cols
}

// denseRefine is refine over whole rows and columns, with fresh
// buffers.
func denseRefine(m *matrix.Matrix, rows, cols []int, delta float64, minRows, minCols int) ([]int, []int) {
	for round := 0; round < 2; round++ {
		colAdj := make([]float64, m.Cols())
		colCnt := make([]int, m.Cols())
		grand, grandN := 0.0, 0
		for _, i := range rows {
			for j, v := range m.RowView(i) {
				if math.IsNaN(v) {
					continue
				}
				colAdj[j] += v
				colCnt[j]++
			}
		}
		for j := range colAdj {
			if colCnt[j] > 0 {
				colAdj[j] /= float64(colCnt[j])
				grand += colAdj[j]
				grandN++
			}
		}
		if grandN == 0 {
			return nil, nil
		}
		level := grand / float64(grandN)
		for j := range colAdj {
			colAdj[j] -= level
		}

		rowOff := make([]float64, m.Rows())
		for _, i := range rows {
			row := m.RowView(i)
			var devBuf []float64
			for _, j := range cols {
				if v := row[j]; !math.IsNaN(v) {
					devBuf = append(devBuf, v-colAdj[j])
				}
			}
			if len(devBuf) == 0 {
				continue
			}
			insertionSort(devBuf)
			rowOff[i] = devBuf[len(devBuf)/2]
		}

		colMean := make([]float64, m.Cols())
		colDev := make([]float64, m.Cols())
		for _, i := range rows {
			for j, v := range m.RowView(i) {
				if !math.IsNaN(v) {
					colMean[j] += v - rowOff[i]
				}
			}
		}
		for j, n := range colCnt {
			colMean[j] /= float64(n)
		}
		for _, i := range rows {
			for j, v := range m.RowView(i) {
				if !math.IsNaN(v) {
					colDev[j] += math.Abs(v - rowOff[i] - colMean[j])
				}
			}
		}
		var newCols []int
		for j, n := range colCnt {
			if n >= minRows && n*2 >= len(rows) && colDev[j]/float64(n) <= delta {
				newCols = append(newCols, j)
			}
		}
		if len(newCols) < minCols {
			return nil, nil
		}
		cols = newCols

		sum := make([]float64, m.Rows())
		cnt := make([]int, m.Rows())
		for _, j := range cols {
			for i, v := range m.ColView(j) {
				if !math.IsNaN(v) {
					sum[i] += v - colAdj[j]
					cnt[i]++
				}
			}
		}
		off := make([]float64, m.Rows())
		for i, s := range sum {
			off[i] = s / float64(cnt[i])
			sum[i] = 0
		}
		for _, j := range cols {
			for i, v := range m.ColView(j) {
				if !math.IsNaN(v) {
					sum[i] += math.Abs(v - colAdj[j] - off[i])
				}
			}
		}
		var newRows []int
		for i, dev := range sum {
			if n := cnt[i]; n >= minCols && dev/float64(n) <= delta {
				newRows = append(newRows, i)
			}
		}
		if len(newRows) < minRows {
			return nil, nil
		}
		rows = newRows
	}
	return rows, cols
}

// listKernelMatrix draws a matrix for the list-kernel properties: a
// lattice background with ties and zeros of both signs (clumpValues),
// one planted shifted block whose entries are exact lattice sums and,
// unless missing is 0 (a complete matrix, for the column-major carve),
// that fraction of entries knocked out plus one fully missing row and
// column.
func listKernelMatrix(t *testing.T, rng *stats.RNG, missing float64) *matrix.Matrix {
	t.Helper()
	rows, cols := 24+rng.Intn(40), 6+rng.Intn(30)
	scale := []float64{1, 0.1}[rng.Intn(2)]
	data := make([][]float64, rows)
	for i := range data {
		data[i] = clumpValues(rng, cols, scale)
	}
	colBias := clumpValues(rng, cols, scale)
	for i := 0; i < rows; i++ {
		if !rng.Bool(0.4) {
			continue
		}
		rowBias := float64(rng.Intn(5)-2) * scale
		for j := range colBias {
			if j%3 != 2 {
				data[i][j] = rowBias + colBias[j]
			}
		}
	}
	if missing > 0 {
		for i := range data {
			for j := range data[i] {
				if rng.Bool(missing) {
					data[i][j] = math.NaN()
				}
			}
		}
		deadRow, deadCol := rng.Intn(rows), rng.Intn(cols)
		for j := range data[deadRow] {
			data[deadRow][j] = math.NaN()
		}
		for i := range data {
			data[i][deadCol] = math.NaN()
		}
	}
	m, err := matrix.NewFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ascendingSubset returns a random ascending subset of 0..n-1.
func ascendingSubset(rng *stats.RNG, n int, p float64) []int {
	var s []int
	for i := 0; i < n; i++ {
		if rng.Bool(p) {
			s = append(s, i)
		}
	}
	return s
}

// TestSeedIndexMatchesMatrix checks the scratch's sparse index against
// the matrix: row i's list is exactly the columns in which it is
// specified, ascending, and column j's the rows.
func TestSeedIndexMatchesMatrix(t *testing.T) {
	specified := func(line []float64) []int32 {
		var idx []int32
		for k, v := range line {
			if !math.IsNaN(v) {
				idx = append(idx, int32(k))
			}
		}
		return idx
	}
	rng := stats.NewRNG(33)
	for trial := 0; trial < 60; trial++ {
		m := listKernelMatrix(t, rng, []float64{0, 0.3, 0.95}[trial%3])
		scr := newSeedScratch(m)
		for i := 0; i < m.Rows(); i++ {
			if got, want := scr.rowEntries(i), specified(m.RowView(i)); !slices.Equal(got, want) {
				t.Fatalf("trial %d: row %d lists columns %v, specified in %v", trial, i, got, want)
			}
		}
		for j := 0; j < m.Cols(); j++ {
			if got, want := scr.colEntries(j), specified(m.ColView(j)); !slices.Equal(got, want) {
				t.Fatalf("trial %d: column %d lists rows %v, specified in %v", trial, j, got, want)
			}
		}
	}
}

// TestListKernelsMatchDense pins carveCols, carveRows and refine on
// the specified-entry lists to the dense kernels they replaced, on
// random matrices with no, 30% and 95% missing entries, a fully
// missing row and column, lattice ties and signed zeros. Each kernel
// is fed both the previous kernel's output, as in the seeding loop,
// and random ascending row and column sets. At 0 and 30% missing the
// test also requires that enough carves and refinements are non-empty
// for the equality to mean something; at 95% nearly all are empty,
// which is the case that leg covers.
func TestListKernelsMatchDense(t *testing.T) {
	rng := stats.NewRNG(17)
	fractions := []float64{0, 0.3, 0.95}
	var carved, refined [3]int
	for trial := 0; trial < 600; trial++ {
		leg := trial % 3
		missing := fractions[leg]
		m := listKernelMatrix(t, rng, missing)
		scr := newSeedScratch(m)
		delta := float64(1+rng.Intn(4)) * 0.25
		if trial%2 == 1 {
			delta *= 0.1
		}
		minCols, minRows := 3, 3

		for pair := 0; pair < 4; pair++ {
			i1, i2 := rng.Intn(m.Rows()), rng.Intn(m.Rows())
			want := denseCarveCols(m, i1, i2, delta, minCols)
			got := scr.carveCols(m, i1, i2, delta, minCols)
			if len(want) < minCols {
				want = nil
			}
			if len(got) < minCols {
				got = nil
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (missing %v): carveCols(%d, %d, δ=%v) = %v, dense %v", trial, missing, i1, i2, delta, got, want)
			}
			if want == nil {
				continue
			}
			carved[leg]++
			for _, need := range []int{maxInt(minCols, (2*len(want)+2)/3), len(want), len(want) - 1, minCols} {
				wantRows := carveRowsReference(m, i1, want, delta, need)
				gotRows := scr.carveRows(m, i1, want, delta, need)
				if !slices.Equal(gotRows, wantRows) {
					t.Fatalf("trial %d (missing %v): carveRows(%d, %v, need %d) = %v, dense %v", trial, missing, i1, want, need, gotRows, wantRows)
				}
			}
			rows := slices.Clone(scr.carveRows(m, i1, want, delta, maxInt(minCols, (2*len(want)+2)/3)))
			if len(rows) < minRows {
				continue
			}
			wantR, wantC := denseRefine(m, rows, slices.Clone(want), delta, minRows, minCols)
			gotR, gotC := scr.refine(m, rows, slices.Clone(want), delta, minRows, minCols)
			if !slices.Equal(gotR, wantR) || !slices.Equal(gotC, wantC) {
				t.Fatalf("trial %d (missing %v): refine of the carve = %v × %v, dense %v × %v", trial, missing, gotR, gotC, wantR, wantC)
			}
			if wantR != nil {
				refined[leg]++
			}
		}

		for draw := 0; draw < 4; draw++ {
			rows := ascendingSubset(rng, m.Rows(), 0.2+0.6*rng.Float64())
			cols := ascendingSubset(rng, m.Cols(), 0.2+0.6*rng.Float64())
			wantR, wantC := denseRefine(m, rows, cols, delta, minRows, minCols)
			gotR, gotC := scr.refine(m, rows, cols, delta, minRows, minCols)
			if !slices.Equal(gotR, wantR) || !slices.Equal(gotC, wantC) {
				t.Fatalf("trial %d (missing %v): refine(%v, %v) = %v × %v, dense %v × %v", trial, missing, rows, cols, gotR, gotC, wantR, wantC)
			}
			if wantR != nil {
				refined[leg]++
			}
		}
	}
	for leg, missing := range fractions[:2] {
		if carved[leg] < 100 || refined[leg] < 100 {
			t.Errorf("missing %v: only %d carves and %d refinements produced a candidate; the inputs must exercise both more",
				missing, carved[leg], refined[leg])
		}
	}
	t.Logf("non-empty carves %v, non-empty refinements %v at missing fractions %v", carved, refined, fractions)
}
