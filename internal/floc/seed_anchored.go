package floc

import (
	"math"
	"math/bits"
	"sort"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// anchoredSeeds implements SeedAnchored (see the SeedMode docs): it
// proposes candidate clusters from random row pairs using the
// constant-difference property of shifting coherence, scores them with
// the run's cost function, and returns the best k mutually distinct
// candidates, topping up with random seeds if fewer qualify.
//
// Candidates are scored in one scratch cluster and kept as bare
// row/column lists with their cost; only the at most k survivors of
// the duplicate filter are built as clusters. A cluster carries
// matrix-sized aggregate slices, and thousands of candidates survive
// refinement on a microarray run, so building each one would hold
// every candidate's slices alive until the sort.
func anchoredSeeds(m *matrix.Matrix, cfg *Config, rng *stats.RNG, costOf func(cl *cluster.Cluster) float64) []*cluster.Cluster {
	attempts := cfg.SeedAttempts
	if attempts <= 0 {
		attempts = 100 * cfg.K
	}
	delta := cfg.MaxResidue
	if delta <= 0 {
		// ResidueGain runs have no δ; a coherence tolerance is still
		// needed to carve candidate seeds. Use a small fraction of the
		// matrix value spread.
		delta = valueSpread(m) / 20
	}
	minRows := maxInt(3, cfg.Constraints.MinRows)
	minCols := maxInt(3, cfg.Constraints.MinCols)

	scr := newSeedScratch(m)
	for a := 0; a < attempts; a++ {
		i1 := rng.Intn(m.Rows())
		i2 := rng.Intn(m.Rows())
		if i1 == i2 {
			continue
		}
		cols := scr.carveCols(m, i1, i2, delta, minCols)
		if len(cols) < minCols {
			continue
		}
		rows := scr.carveRows(m, i1, cols, delta, maxInt(minCols, (2*len(cols)+2)/3))
		if len(rows) < minRows {
			continue
		}
		rows, cols = scr.refine(m, rows, cols, delta, minRows, minCols)
		if len(rows) < minRows || len(cols) < minCols {
			continue
		}
		scr.score(rows, cols, costOf)
	}

	cands := scr.cands
	sort.Slice(cands, func(a, b int) bool { return cands[a].cost < cands[b].cost })

	// Greedily keep the best candidates that are not near-duplicates
	// (row-set overlap ≥ 2/3 of the smaller set counts as duplicate).
	// Negative-cost candidates are genuine finds; the rest are still
	// better-than-random starting points (phase 2 sheds them if not),
	// so they fill remaining slots before random fallback seeds do.
	clusters := make([]*cluster.Cluster, 0, cfg.K)
	for _, cand := range cands {
		if len(clusters) == cfg.K {
			break
		}
		rows := scr.candRows[cand.rows[0]:cand.rows[1]]
		dup := false
		for _, kept := range clusters {
			if rowOverlap(rows, kept)*3 >= 2*minInt(len(rows), kept.NumRows()) {
				dup = true
				break
			}
		}
		if !dup {
			clusters = append(clusters, cluster.FromSpec(m, rows, scr.candCols[cand.cols[0]:cand.cols[1]]))
		}
	}

	// Top up with the paper's random seeds.
	for c := len(clusters); c < cfg.K; c++ {
		cl := cluster.New(m)
		pRow := cfg.seedRowProb(c)
		pCol := cfg.seedColProb(c)
		for i := 0; i < m.Rows(); i++ {
			if rng.Bool(pRow) {
				cl.AddRow(i)
			}
		}
		for j := 0; j < m.Cols(); j++ {
			if rng.Bool(pCol) {
				cl.AddCol(j)
			}
		}
		repairSeed(cl, m, cfg, rng)
		clusters = append(clusters, cl)
	}
	return clusters
}

// seedCandidate is a refined candidate seed: its rows and columns as
// [start, end) spans of the scratch arenas, and its cost.
type seedCandidate struct {
	rows, cols [2]int
	cost       float64
}

// seedScratch holds the buffers the seeding loop reuses across its
// attempts, sized to the matrix once per run. The carve and refinement
// run once per attempt that gets that far — up to 100·K times per
// engine run, thousands of times on the yeast stand-in — and
// per-attempt temporaries dominated the engine's allocation profile,
// so every per-attempt buffer lives here. Row offsets live in a
// matrix-row-indexed slice rather than the map a fresh-per-call
// implementation would use; entries for the current row set are zeroed
// before each fill, reproducing the map's zero-for-absent reads.
//
// The scratch also holds the run's sparse index: the positions of m's
// specified entries, once as per-row column lists (CSR) and once as
// per-column row lists (CSC). The carves and refine walk these lists,
// reading each listed entry from RowView or ColView, instead of
// scanning whole rows and columns, so a kernel touches only specified
// entries — on the 5.5%-filled ratings stand-in, an eighteenth of the
// dense scan — and never tests an entry for NaN. Each list is in
// ascending index order, the order the dense skip-NaN loops visited
// the same entries in, so every sum takes the same operands in the
// same order and rounds identically. The lists hold positions only:
// values come from the matrix, which keeps the index at 8 bytes per
// specified entry. The index is built per run rather than kept with
// the matrix's derived caches: seeding is its only reader, so the
// matrix mutators need not maintain it and a stored matrix carries no
// extra bytes.
type seedScratch struct {
	// complete records that m has no missing entries, which lets the
	// row carve run column by column (carveRows).
	complete bool

	// The sparse index: row i is specified in columns
	// rowIdx[rowPtr[i]:rowPtr[i+1]], column j in rows
	// colIdx[colPtr[j]:colPtr[j+1]]. Built once per run by buildIndex;
	// read-only after.
	rowPtr, colPtr []int
	rowIdx, colIdx []int32

	diffs     []float64 // the anchor pair's per-column differences
	carvedCol []int     // the pair carve's column set: the pair's shared columns, then the clump's
	carvedRow []int     // the anchor carve's row set
	offsets   []float64 // one row's offsets against the anchor (row-wise carve)
	lo, lo2   []float64 // per alive row of the column-major carve: smallest and second-smallest offset
	hi, hi2   []float64 // per alive row of the column-major carve: largest and second-largest offset

	colAdj  []float64 // per-column mean adjustment for the current rows
	colCnt  []int     // per-column specified entries over the current rows
	rowOff  []float64 // per-row offset: the median for the current rows, then the row re-selection's means
	colMean []float64 // per-column mean of the offset-corrected entries
	colDev  []float64 // per-column absolute deviation sum from colMean
	devBuf  []float64 // per-row deviation sort buffer
	rowSum  []float64 // per matrix row: offset, then deviation sum, of the row re-selection
	rowCnt  []int     // per matrix row: specified entries behind rowSum, or among the carve's columns (row-wise carve)
	cols    []int     // refined column set, reused across rounds and calls
	rows    []int     // refined row set, reused across rounds and calls

	cl       *cluster.Cluster // the one cluster every candidate is scored in
	cands    []seedCandidate
	candRows []int // arena of the candidates' row lists
	candCols []int // arena of the candidates' column lists
}

func newSeedScratch(m *matrix.Matrix) *seedScratch {
	scr := &seedScratch{
		complete:  m.SpecifiedCount() == m.Rows()*m.Cols(),
		diffs:     make([]float64, 0, m.Cols()),
		carvedCol: make([]int, 0, m.Cols()),
		carvedRow: make([]int, 0, m.Rows()),
		offsets:   make([]float64, 0, m.Cols()),
		colAdj:    make([]float64, m.Cols()),
		colCnt:    make([]int, m.Cols()),
		rowOff:    make([]float64, m.Rows()),
		colMean:   make([]float64, m.Cols()),
		colDev:    make([]float64, m.Cols()),
		devBuf:    make([]float64, 0, m.Cols()),
		rowSum:    make([]float64, m.Rows()),
		rowCnt:    make([]int, m.Rows()),
		cols:      make([]int, 0, m.Cols()),
		rows:      make([]int, 0, m.Rows()),
		cl:        cluster.New(m),
	}
	if scr.complete {
		scr.lo = make([]float64, m.Rows())
		scr.lo2 = make([]float64, m.Rows())
		scr.hi = make([]float64, m.Rows())
		scr.hi2 = make([]float64, m.Rows())
	}
	scr.buildIndex(m)
	return scr
}

// buildIndex fills the sparse index from m's row and column
// missing-value bitsets: four allocations per run, independent of the
// attempts.
func (scr *seedScratch) buildIndex(m *matrix.Matrix) {
	nnz := m.SpecifiedCount()
	scr.rowPtr, scr.rowIdx = specifiedLists(m.Rows(), nnz, m.RowMask)
	scr.colPtr, scr.colIdx = specifiedLists(m.Cols(), nnz, m.ColMask)
}

// specifiedLists lists the positions of the nnz specified entries of n
// lines — rows or columns, whose bitsets mask returns — as CSR: line
// i's entries are idx[ptr[i]:ptr[i+1]]. Walking each line's set bits
// lowest first yields them in ascending order and never reads a value,
// so the build costs the bitset words plus the specified entries, not
// a dense IsNaN scan.
func specifiedLists(n, nnz int, mask func(int) []uint64) (ptr []int, idx []int32) {
	ptr, idx = make([]int, n+1), make([]int32, nnz)
	k := 0
	for i := 0; i < n; i++ {
		for w, word := range mask(i) {
			for ; word != 0; word &= word - 1 {
				idx[k] = int32(w<<6 | bits.TrailingZeros64(word))
				k++
			}
		}
		ptr[i+1] = k
	}
	return ptr, idx
}

// rowEntries returns the columns, ascending, in which row i is
// specified.
func (scr *seedScratch) rowEntries(i int) []int32 {
	return scr.rowIdx[scr.rowPtr[i]:scr.rowPtr[i+1]]
}

// colEntries returns the rows, ascending, in which column j is
// specified.
func (scr *seedScratch) colEntries(j int) []int32 {
	return scr.colIdx[scr.colPtr[j]:scr.colPtr[j+1]]
}

// carveCols returns the columns on which anchor rows i1 and i2 differ
// by a near-constant: the pair's coherent attribute set. If the rows
// share a δ-cluster, its columns form a tight clump in the sorted
// difference values — anywhere in the range, so the clump is located
// with a densest-window scan, not a median. A result shorter than
// minCols means the pair shows no clump. The slice is backed by the
// scratch and valid until the next call.
//
// The pair's shared columns come from merging the two rows' lists,
// in ascending column order; the clump filter then runs in place over
// them.
//
// deltavet:hotpath — once per seeding attempt, 100·K attempts a run.
func (scr *seedScratch) carveCols(m *matrix.Matrix, i1, i2 int, delta float64, minCols int) []int {
	idx1, idx2 := scr.rowEntries(i1), scr.rowEntries(i2)
	row1, row2 := m.RowView(i1), m.RowView(i2)
	shared, diffs := scr.carvedCol[:0], scr.diffs[:0]
	for a, b := 0, 0; a < len(idx1) && b < len(idx2); {
		switch j1, j2 := idx1[a], idx2[b]; {
		case j1 < j2:
			a++
		case j1 > j2:
			b++
		default:
			shared = append(shared, int(j1))
			diffs = append(diffs, row1[j1]-row2[j1])
			a++
			b++
		}
	}
	if len(diffs) < minCols {
		return nil
	}
	center, count := densestWindow(diffs, 2*delta)
	if count < minCols {
		return nil
	}
	cols := shared[:0]
	for _, j := range shared {
		if math.Abs(row1[j]-row2[j]-center) <= 1.5*delta {
			cols = append(cols, j)
		}
	}
	return cols
}

// carveRows returns, in ascending order, the rows coherent with anchor
// row i1 on cols: a row qualifies when at least need of its offsets
// against the anchor clump within 2δ (a trimmed criterion, so a few
// accidental columns in the carve cannot veto true rows). cols must
// be specified in the anchor row, as carveCols guarantees. The slice
// is backed by the scratch and valid until the next call.
//
// The test is clumps, densestWindow(offsets, 2δ) ≥ need without the
// sort. On a complete matrix with at most one offset allowed outside
// the clump, carveRowsColumns runs it column by column instead; on
// the yeast stand-in that is 95% of the carves, about half each with
// slack 0 and slack 1. Larger slacks, and matrices with missing
// entries, gather each row's offsets. With missing entries, a row
// specified in fewer than need of cols cannot clump, so the column
// lists first count each row's entries among cols and only rows
// reaching need are gathered.
//
// deltavet:hotpath — scans every matrix row once per attempt with a
// pair clump.
func (scr *seedScratch) carveRows(m *matrix.Matrix, i1 int, cols []int, delta float64, need int) []int {
	row1 := m.RowView(i1)
	width := 2 * delta
	if slack := len(cols) - need; scr.complete && slack <= 1 {
		return scr.carveRowsColumns(m, row1, cols, width, slack)
	}
	cnt := scr.rowCnt
	if !scr.complete {
		clear(cnt)
		for _, j := range cols {
			for _, i := range scr.colEntries(j) {
				cnt[i]++
			}
		}
	}
	rows := scr.carvedRow[:0]
	for r := 0; r < m.Rows(); r++ {
		if !scr.complete && cnt[r] < need {
			continue
		}
		rowR := m.RowView(r)
		offsets := scr.offsets[:0]
		for _, j := range cols {
			if v := rowR[j]; !math.IsNaN(v) {
				offsets = append(offsets, v-row1[j])
			}
		}
		if clumps(offsets, need, width) {
			rows = append(rows, r)
		}
	}
	return rows
}

// carveRowsColumns is carveRows on a complete matrix when all
// len(cols) offsets of a row (slack 0) or all but one (slack 1) must
// clump. Sorted, a row's offsets x₀ ≤ … ≤ xₙ₋₁ then clump iff
// xₙ₋₁ − x₀ ≤ width, respectively xₙ₋₂ − x₀ ≤ width or xₙ₋₁ − x₁ ≤
// width — a test on the row's two (four) extreme offsets, which are
// kept running while the columns stream through the column-major
// mirror. Both spans only widen as offsets arrive, so a row is
// dropped as soon as they exceed the width: the first two (three)
// columns are scanned for every row, the rest only for the few rows
// still alive, in place over the alive list. cols holds at least
// three columns, as every carve does. Slack 0 keeps its own
// two-extreme loop: answering it from the four-extreme tracker is
// measurably slower on the yeast stand-in.
//
// deltavet:hotpath — see carveRows.
func (scr *seedScratch) carveRowsColumns(m *matrix.Matrix, row1 []float64, cols []int, width float64, slack int) []int {
	n := m.Rows()
	alive := scr.carvedRow[:0]
	lo, hi := scr.lo, scr.hi // per alive row: smallest and largest offset
	c0, a0 := m.ColView(cols[0])[:n], row1[cols[0]]
	c1, a1 := m.ColView(cols[1])[:n], row1[cols[1]]
	if slack == 0 {
		for r := range c0 {
			x, y := c0[r]-a0, c1[r]-a1
			if y < x {
				x, y = y, x
			}
			if y-x <= width {
				lo[len(alive)], hi[len(alive)] = x, y
				alive = append(alive, r)
			}
		}
		for _, j := range cols[2:] {
			col, a := m.ColView(j), row1[j]
			kept := alive[:0]
			for k, r := range alive {
				l, h := lo[k], hi[k]
				if d := col[r] - a; d < l {
					l = d
				} else if d > h {
					h = d
				}
				if h-l <= width {
					lo[len(kept)], hi[len(kept)] = l, h
					kept = append(kept, r)
				}
			}
			alive = kept
		}
		return alive
	}
	lo2, hi2 := scr.lo2, scr.hi2 // per alive row: second-smallest and second-largest offset
	c2, a2 := m.ColView(cols[2])[:n], row1[cols[2]]
	for r := range c0 {
		x, y, z := c0[r]-a0, c1[r]-a1, c2[r]-a2
		if y < x {
			x, y = y, x
		}
		if z < y {
			y, z = z, y
			if y < x {
				x, y = y, x
			}
		}
		if y-x <= width || z-y <= width {
			at := len(alive)
			lo[at], lo2[at], hi2[at], hi[at] = x, y, y, z
			alive = append(alive, r)
		}
	}
	for _, j := range cols[3:] {
		col, a := m.ColView(j), row1[j]
		kept := alive[:0]
		for k, r := range alive {
			l, l2, h2, h := lo[k], lo2[k], hi2[k], hi[k]
			d := col[r] - a
			if d < l2 {
				if d < l {
					l, l2 = d, l
				} else {
					l2 = d
				}
			}
			if d > h2 {
				if d > h {
					h, h2 = d, h
				} else {
					h2 = d
				}
			}
			if h2-l <= width || h-l2 <= width {
				at := len(kept)
				lo[at], lo2[at], hi2[at], hi[at] = l, l2, h2, h
				kept = append(kept, r)
			}
		}
		alive = kept
	}
	return alive
}

// clumps reports whether at least need ≥ 1 values of xs lie in one
// window of the given width, sorting xs in place. It answers exactly
// densestWindow(xs, width) ≥ need: on sorted values the densest
// window holds need values iff some run xs[i..i+need-1] spans at most
// width, and because IEEE subtraction rounds monotonically the span
// test sees the same float operands the window scan does.
func clumps(xs []float64, need int, width float64) bool {
	if len(xs) < need {
		return false
	}
	insertionSort(xs)
	for i := need - 1; i < len(xs); i++ {
		if xs[i]-xs[i-need+1] <= width {
			return true
		}
	}
	return false
}

// insertionSort sorts xs ascending in place (NaN-free input). On the
// few-element slices seeding sorts it beats sort.Float64s. For up to
// 12 elements it performs the same swaps as the standard library's
// small-slice insertion sort; on longer slices the two orders can
// differ only in where −0 and +0 sit among equal zeros, which neither
// a span compared against a positive width nor a median entering
// sums that start at +0 can observe.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		k := i
		for k > 0 && v < xs[k-1] {
			xs[k] = xs[k-1]
			k--
		}
		xs[k] = v
	}
}

// refineCandidate is the standalone form of seedScratch.refine for
// one-off callers (tests); the seeding loop reuses a single scratch.
func refineCandidate(m *matrix.Matrix, rows, cols []int, delta float64, minRows, minCols int) ([]int, []int) {
	return newSeedScratch(m).refine(m, rows, cols, delta, minRows, minCols)
}

// refine alternates two rounds of column and row re-selection over the
// *whole* matrix against the candidate's additive fit. The pair carve
// is noisy — accidental columns slip into the clump window and, at
// mild contrast, background columns can outnumber the true clump — but
// once an approximate row set exists, per-column and per-row mean
// absolute deviations from the two-way additive model separate members
// from background far more sharply than any pairwise statistic, so two
// rounds reach the coherent fixed point.
//
// Neither re-selection gathers at a stride: the column statistics
// accumulate row by row over the member rows' lists into per-column
// sums, and the row statistics column by column over the refined
// columns' lists into per-row sums. Each sum still takes its terms in
// the order of a direct scan — a column's over rows in row order, a
// row's over columns in column order — so every operand and rounding
// step is unchanged.
//
// The returned slices are backed by the scratch and stay valid only
// until the next refine call; callers keeping a result must copy it
// (cluster.FromSpec copies on construction).
//
// deltavet:hotpath — once per attempt that survives the carve.
func (scr *seedScratch) refine(m *matrix.Matrix, rows, cols []int, delta float64, minRows, minCols int) ([]int, []int) {
	for round := 0; round < 2; round++ {
		// Column adjustments from the current rows: c_j is column j's
		// mean over member rows relative to the overall level.
		colAdj := scr.colAdj
		colCnt := scr.colCnt
		clear(colAdj)
		clear(colCnt)
		grand, grandN := 0.0, 0
		for _, i := range rows {
			row := m.RowView(i)
			for _, j := range scr.rowEntries(i) {
				colAdj[j] += row[j]
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

		// Row offsets against the current columns, computed robustly
		// (median) so a stray background column cannot poison them.
		// Rows whose columns are all missing keep offset 0, like the
		// absent map keys they once were.
		rowOffV := scr.rowOff
		for _, i := range rows {
			rowOffV[i] = 0
		}
		for _, i := range rows {
			row := m.RowView(i)
			devBuf := scr.devBuf[:0]
			for _, j := range cols {
				if v := row[j]; !math.IsNaN(v) {
					devBuf = append(devBuf, v-colAdj[j])
				}
			}
			if len(devBuf) == 0 {
				continue
			}
			insertionSort(devBuf)
			rowOffV[i] = devBuf[len(devBuf)/2]
		}

		// Re-select columns first: per-column mean absolute deviation
		// from the rows' offsets. Junk columns admitted by the pair
		// carve are glaring here (background-sized deviation), and
		// they must go before rows are scored, or their deviation
		// would reject every true row. In round two cols aliases
		// scr.cols; the selection reads only rows and rowOffV, so
		// appending over the old set in place is safe. Both passes run
		// row by row over the member rows, so each column's sums take
		// their terms in row order, as a scan down the column would;
		// colCnt counts the same entries.
		colMean, colDev := scr.colMean, scr.colDev
		clear(colMean)
		clear(colDev)
		for _, i := range rows {
			off := rowOffV[i]
			row := m.RowView(i)
			for _, j := range scr.rowEntries(i) {
				colMean[j] += row[j] - off
			}
		}
		for j, n := range colCnt {
			colMean[j] /= float64(n)
		}
		for _, i := range rows {
			off := rowOffV[i]
			row := m.RowView(i)
			for _, j := range scr.rowEntries(i) {
				colDev[j] += math.Abs(row[j] - off - colMean[j])
			}
		}
		newCols := scr.cols[:0]
		for j, n := range colCnt {
			if n >= minRows && n*2 >= len(rows) && colDev[j]/float64(n) <= delta {
				newCols = append(newCols, j)
			}
		}
		if len(newCols) < minCols {
			return nil, nil
		}
		cols = newCols

		// Re-select rows on the refined columns: a row joins when its
		// offset-corrected mean absolute deviation is within δ. The
		// offsets, then the deviations, accumulate in rowSum one
		// column at a time. Like newCols above, rows is not read
		// here, so scr.rows can be rebuilt in place.
		sum, cnt := scr.rowSum, scr.rowCnt
		clear(sum)
		clear(cnt)
		for _, j := range cols {
			adj := colAdj[j]
			col := m.ColView(j)
			for _, i := range scr.colEntries(j) {
				sum[i] += col[i] - adj
				cnt[i]++
			}
		}
		off := scr.rowOff // the medians are spent; reuse their slice
		for i, s := range sum {
			off[i] = s / float64(cnt[i])
			sum[i] = 0
		}
		for _, j := range cols {
			adj := colAdj[j]
			col := m.ColView(j)
			for _, i := range scr.colEntries(j) {
				sum[i] += math.Abs(col[i] - adj - off[i])
			}
		}
		newRows := scr.rows[:0]
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

// score prices the refined candidate rows × cols with costOf and
// records it. The candidate is built in the scratch cluster exactly
// as cluster.FromSpec would build it — columns, then rows, in the
// given order — so its cost carries the same bits.
//
// deltavet:hotpath — once per refined candidate; the cluster is
// reset, never rebuilt, so a candidate costs no matrix-sized
// allocation.
func (scr *seedScratch) score(rows, cols []int, costOf func(cl *cluster.Cluster) float64) {
	cl := scr.cl
	cl.Reset()
	for _, j := range cols {
		cl.AddCol(j)
	}
	for _, i := range rows {
		cl.AddRow(i)
	}
	c := seedCandidate{cost: costOf(cl)}
	c.rows[0] = len(scr.candRows)
	scr.candRows = append(scr.candRows, rows...)
	c.rows[1] = len(scr.candRows)
	c.cols[0] = len(scr.candCols)
	scr.candCols = append(scr.candCols, cols...)
	c.cols[1] = len(scr.candCols)
	scr.cands = append(scr.cands, c)
}

// densestWindow finds the sliding window of the given width holding
// the most values of xs and returns the mean of the values inside it
// together with their count. xs is sorted in place. The empty slice
// yields (NaN, 0).
func densestWindow(xs []float64, width float64) (center float64, count int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	bestLo, bestHi := 0, 1
	lo := 0
	for hi := 1; hi <= len(xs); hi++ {
		for xs[hi-1]-xs[lo] > width {
			lo++
		}
		if hi-lo > bestHi-bestLo {
			bestLo, bestHi = lo, hi
		}
	}
	sum := 0.0
	for _, v := range xs[bestLo:bestHi] {
		sum += v
	}
	return sum / float64(bestHi-bestLo), bestHi - bestLo
}

// valueSpread returns max−min over the specified entries of m.
func valueSpread(m *matrix.Matrix) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.RowView(i) {
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi <= lo {
		return 1
	}
	return hi - lo
}

// rowOverlap counts the rows of the duplicate-free list rows that are
// members of b.
func rowOverlap(rows []int, b *cluster.Cluster) int {
	n := 0
	for _, i := range rows {
		if b.HasRow(i) {
			n++
		}
	}
	return n
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
