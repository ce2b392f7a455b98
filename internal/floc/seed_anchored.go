package floc

import (
	"math"
	"math/bits"
	"sort"

	"deltacluster/internal/cluster"
	"deltacluster/internal/cpu"
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
	// row carve and refine's row re-selection stream the column-major
	// mirror (carveRowsColumns, selectRowsComplete) and refine's column
	// sums run over whole rows (columnSums).
	complete bool

	// vector selects the AVX2 kernels (seed_amd64.s) for the
	// complete-matrix streams: the column-major carve, the row
	// re-selection's range filter and refine's column sums. It is
	// cpu.AVX2; the Go loops serve when it is false, and tests clear it
	// to run them as the reference.
	vector bool

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
	lo, hi    []float64 // per alive row of a column-major pass: smallest and largest offset (carve) or adjusted value (row re-selection)
	lo2, hi2  []float64 // per alive row of the slack-1 carve: second-smallest and second-largest offset

	colAdj  []float64 // per-column mean adjustment for the current rows
	colCnt  []int     // per-column specified entries over the current rows
	rowOff  []float64 // per-row offset: the median for the current rows, then the row re-selection's means
	colMean []float64 // per-column mean of the offset-corrected entries
	colDev  []float64 // per-column absolute deviation sum from colMean
	devBuf  []float64 // per-row deviation sort buffer
	rowSum  []float64 // per matrix row: offset, then deviation sum, of the row re-selection
	rowCnt  []int     // per matrix row: specified entries behind rowSum, or among the carve's columns (row-wise carve)
	cols    []int     // refined column set, reused across rounds and calls
	rows    []int     // refined row set, reused across rounds and calls; selectRowsComplete's alive list; the deltadebug carve rerun's

	cl       *cluster.Cluster // the one cluster every candidate is scored in
	cands    []seedCandidate
	candRows []int // arena of the candidates' row lists
	candCols []int // arena of the candidates' column lists
}

func newSeedScratch(m *matrix.Matrix) *seedScratch {
	scr := &seedScratch{
		complete:  m.SpecifiedCount() == m.Rows()*m.Cols(),
		vector:    cpu.AVX2,
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
// sort. On a complete matrix, carveRowsColumns runs it column by
// column on each row's extreme offsets instead: in the Go loops at
// slack 0 and 1 (about half each of the yeast stand-in's carves), and,
// on AVX2, in kernels at every slack up to carveMaxSlack, which covers
// every carve of up to 17 columns (the yeast stand-in's carves reach
// slack 3). Larger slacks, the Go loops at slack 2 and up, matrices
// with missing entries and an infinite width gather each row's offsets
// and sort them (clumpRows). The column-major loops drop a row once
// its first offsets cannot clump, which the verdict survives only
// under a finite width: under an infinite one, two same-sign infinite
// offsets span Inf − Inf = NaN and fail while a finite offset could
// still clump with them. With missing entries, a row specified in
// fewer than need of cols cannot clump, so the column lists first
// count each row's entries among cols and only rows reaching need are
// gathered.
//
// deltavet:hotpath — once per attempt with a pair clump. Every row is
// read in the carve's first two or three columns (Go column-major
// loops) or in all of them (AVX2 kernel at slack 1 and up, row-wise
// path on a complete matrix); later columns, and rows short of need
// with missing entries, are skipped.
func (scr *seedScratch) carveRows(m *matrix.Matrix, i1 int, cols []int, delta float64, need int) []int {
	row1 := m.RowView(i1)
	width := 2 * delta
	if slack := len(cols) - need; scr.complete && !math.IsInf(width, 1) && (slack <= 1 || scr.vector && slack <= carveMaxSlack) {
		rows := scr.carveRowsColumns(m, row1, cols, width, slack, scr.vector, scr.carvedRow[:m.Rows()])
		if debugInvariants && scr.vector {
			scr.checkCarve(m, row1, cols, width, slack, rows)
		}
		return rows
	}
	if !scr.complete {
		cnt := scr.rowCnt
		clear(cnt)
		for _, j := range cols {
			for _, i := range scr.colEntries(j) {
				cnt[i]++
			}
		}
	}
	return scr.clumpRows(m, row1, cols, width, need, 0, scr.carvedRow[:0])
}

// clumpRows is the row-wise carve: it appends to dst, in ascending
// order, the rows r ≥ from whose offsets against row1 on cols clump
// (clumps), gathering and sorting each row's offsets. With missing
// entries it skips the rows whose count in rowCnt is short of need.
//
// deltavet:hotpath — see carveRows.
func (scr *seedScratch) clumpRows(m *matrix.Matrix, row1 []float64, cols []int, width float64, need, from int, dst []int) []int {
	for r := from; r < m.Rows(); r++ {
		if !scr.complete && scr.rowCnt[r] < need {
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
			dst = append(dst, r)
		}
	}
	return dst
}

// carveMaxSlack is the largest slack carveSAVX2 takes: its slots, six
// smallest and six largest offsets of four rows, fill twelve of the
// sixteen ymm registers.
const carveMaxSlack = 5

// carveRowsColumns is carveRows on a complete matrix under a finite
// width, written to buf (m.Rows() long), for slack 0 and 1 and, with
// vector set, up to carveMaxSlack. Sorted, a row's offsets
// x₀ ≤ … ≤ xₙ₋₁ clump iff x[i+need−1] − x[i] ≤ width for some i ≤
// slack: a test on the row's slack+1 smallest and slack+1 largest
// offsets, kept running while the columns stream through the
// column-major mirror.
//
// With vector set, the AVX2 kernels take the rows four per register,
// block by block, and clumpRows, respectively the Go loops, the last
// m.Rows() mod 4. At slack 0, rangeRowsAVX2 carries each block's two
// extremes through the columns until no row of it is alive; at slack 1
// and up, carveSAVX2 inserts every offset into each row's order
// statistics and tests the windows once (seed_amd64.s).
//
// Without vector, the Go loops take slack 0 and 1 column by column
// over a list of the rows still alive, in place: spans only widen as
// offsets arrive, so a row is dropped as soon as they exceed the
// width, and only the first two (three) columns are read for every
// row. The first pass keeps 12% of the yeast stand-in's rows at slack
// 0 and 31% at slack 1, too many for a well-predicted branch, so it
// runs without a branch on the outcome: each row index is written to
// the list unconditionally and the list advances when the row passes,
// and only the survivors' extremes are then sorted into lo/hi
// (lo2/hi2). The tests are the sorted ones: with slack 0, |y − x| ≤
// width equals the sorted y − x ≤ width because negation is exact;
// with slack 1, min(|y−x|, |z−y|, |z−x|) ≤ width equals "an adjacent
// sorted gap ≤ width", because the outer gap rounds to at least either
// inner one. Offsets that overflow to ±Inf give the same verdicts both
// ways. Slack 0 keeps its own two-extreme loop: answering it from the
// four-extreme tracker is measurably slower on the yeast stand-in.
// cols holds at least three columns, as every carve does.
//
// deltavet:hotpath — see carveRows.
func (scr *seedScratch) carveRowsColumns(m *matrix.Matrix, row1 []float64, cols []int, width float64, slack int, vector bool, buf []int) []int {
	n := m.Rows()
	if vector && slack >= 1 {
		done := carveSAVX2(&m.ColView(0)[0], n, &cols[0], len(cols), &row1[0], width, slack, &buf[0])
		return scr.clumpRows(m, row1, cols, width, len(cols)-slack, n&^3, buf[:done])
	}
	done, from := 0, 0
	if vector {
		done = rangeRowsAVX2(&m.ColView(0)[0], n, &cols[0], len(cols), &row1[0], width, &buf[0])
		from = n &^ 3
	}
	alive := buf[done : done+n-from]
	lo, hi := scr.lo, scr.hi // per alive row: smallest and largest offset
	c0, a0 := m.ColView(cols[0])[:n], row1[cols[0]]
	c1, a1 := m.ColView(cols[1])[:n], row1[cols[1]]
	if slack == 0 {
		k := 0
		for r := from; r < len(c0); r++ {
			alive[k] = r
			if math.Abs((c1[r]-a1)-(c0[r]-a0)) <= width {
				k++
			}
		}
		alive = alive[:k]
		for k, r := range alive {
			x, y := c0[r]-a0, c1[r]-a1
			if y < x {
				x, y = y, x
			}
			lo[k], hi[k] = x, y
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
		return buf[:done+len(alive)]
	}
	lo2, hi2 := scr.lo2, scr.hi2 // per alive row: second-smallest and second-largest offset
	c2, a2 := m.ColView(cols[2])[:n], row1[cols[2]]
	k := 0
	for r := from; r < len(c0); r++ {
		x, y, z := c0[r]-a0, c1[r]-a1, c2[r]-a2
		alive[k] = r
		if min(math.Abs(y-x), math.Abs(z-y), math.Abs(z-x)) <= width {
			k++
		}
	}
	alive = alive[:k]
	for k, r := range alive {
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
		lo[k], lo2[k], hi2[k], hi[k] = x, y, y, z
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
	return buf[:done+len(alive)]
}

// clumps reports whether at least need ≥ 1 values of xs lie in one
// window of the given width, sorting xs in place. It answers exactly
// densestWindow(xs, width) ≥ need: on sorted values the densest
// window holds need values iff some run xs[i..i+need-1] spans at most
// width, and because IEEE subtraction rounds monotonically the span
// test sees the same float operands the window scan does. Under a
// finite width, offsets that overflowed to ±Inf never clump: a run
// ending or starting at one spans Inf or Inf − Inf = NaN, and neither
// is at most width. Under an infinite width a run fits unless both its
// ends hold the same infinity (span NaN), so an infinite offset clumps
// with any value other than itself.
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
// accumulate row by row into per-column sums (columnSums), and the row
// statistics column by column over the refined columns' lists into
// per-row sums (selectRows). Each sum still takes its terms in the
// order of a direct scan — a column's over rows in row order, a row's
// over columns in column order — so every operand and rounding step is
// unchanged. On a complete matrix the column sums run four columns per
// register (columnSumsAVX2), and the row re-selection first rules rows
// out by the range of their adjusted values and sums only for the
// survivors (selectRowsComplete).
//
// The returned slices are backed by the scratch and stay valid only
// until the next refine call; callers keeping a result must copy it
// (cluster.FromSpec copies on construction).
//
// deltavet:hotpath — once per attempt that survives the carve.
func (scr *seedScratch) refine(m *matrix.Matrix, rows, cols []int, delta float64, minRows, minCols int) ([]int, []int) {
	vector := scr.vector && scr.complete
	for round := 0; round < 2; round++ {
		if !scr.columnAdjustments(m, rows, vector) {
			return nil, nil
		}
		colAdj, colCnt := scr.colAdj, scr.colCnt

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
		// appending over the old set in place is safe. Both sums take
		// the entries colCnt counts.
		colMean, colDev := scr.colMean, scr.colDev
		clear(colMean)
		clear(colDev)
		scr.columnSums(m, rows, colCentered, colMean, vector)
		for j, n := range colCnt {
			colMean[j] /= float64(n)
		}
		scr.columnSums(m, rows, colDeviations, colDev, vector)
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
		// offset-corrected mean absolute deviation is within δ. Like
		// newCols above, rows is not read here, so scr.rows can be
		// rebuilt in place.
		var newRows []int
		if scr.complete {
			newRows = scr.selectRowsComplete(m, cols, delta, scr.vector)
			if debugInvariants {
				scr.checkRowSelection(m, cols, delta, minCols, newRows)
			}
		} else {
			newRows = scr.selectRows(m, cols, delta, minCols, scr.rows[:0])
		}
		if len(newRows) < minRows {
			return nil, nil
		}
		rows = newRows
	}
	return rows, cols
}

// columnAdjustments sets refine's column adjustments from the current
// rows: colAdj[j] is column j's mean over the rows relative to the
// overall level, the mean of the column means, and colCnt[j] the
// number of entries behind it. It reports false when no column has an
// entry among the rows.
func (scr *seedScratch) columnAdjustments(m *matrix.Matrix, rows []int, vector bool) bool {
	colAdj, colCnt := scr.colAdj, scr.colCnt
	clear(colAdj)
	clear(colCnt)
	scr.columnSums(m, rows, colValues, colAdj, vector)
	grand, grandN := 0.0, 0
	for j := range colAdj {
		if colCnt[j] > 0 {
			colAdj[j] /= float64(colCnt[j])
			grand += colAdj[j]
			grandN++
		}
	}
	if grandN == 0 {
		return false
	}
	level := grand / float64(grandN)
	for j := range colAdj {
		colAdj[j] -= level
	}
	return true
}

// The terms columnSums adds up, per member row i and column j: the
// entry v = m[i][j], v − rowOff[i], or |v − rowOff[i] − colMean[j]|.
const (
	colValues = iota
	colCentered
	colDeviations
)

// columnSums sums into dst[j], for every column j, one term of the
// given kind per member row specified in it, in row order, as a scan
// down the column would; colValues also counts the terms in colCnt.
// dst and, for colValues, colCnt start cleared. The
// sums run row by row over the member rows' lists, or, with vector
// set on a complete matrix, over whole rows four columns per register
// (columnSumsAVX2), which adds the same terms in the same order.
//
// deltavet:hotpath — three calls per refine round.
func (scr *seedScratch) columnSums(m *matrix.Matrix, rows []int, kind int, dst []float64, vector bool) {
	if len(rows) == 0 {
		return
	}
	if vector {
		columnSumsAVX2(&m.RowView(0)[0], m.Cols(), &rows[0], len(rows), &scr.rowOff[0], &scr.colMean[0], &dst[0], kind)
		if kind == colValues {
			for j := range scr.colCnt {
				scr.colCnt[j] = len(rows)
			}
		}
		if debugInvariants {
			scr.checkColumnSums(m, rows, kind, dst)
		}
		return
	}
	off, mean := scr.rowOff, scr.colMean
	switch kind {
	case colValues:
		cnt := scr.colCnt
		for _, i := range rows {
			row := m.RowView(i)
			for _, j := range scr.rowEntries(i) {
				dst[j] += row[j]
				cnt[j]++
			}
		}
	case colCentered:
		for _, i := range rows {
			off := off[i]
			row := m.RowView(i)
			for _, j := range scr.rowEntries(i) {
				dst[j] += row[j] - off
			}
		}
	case colDeviations:
		for _, i := range rows {
			off := off[i]
			row := m.RowView(i)
			for _, j := range scr.rowEntries(i) {
				dst[j] += math.Abs(row[j] - off - mean[j])
			}
		}
	}
}

// selectRows is refine's row re-selection over the specified-entry
// lists: a row joins when it is specified in at least minCols of cols
// and its offset-corrected mean absolute deviation on them is within
// δ. The offsets, then the deviations, accumulate in rowSum one column
// at a time, each row's terms in ascending column order. The rows are
// appended to dst in ascending order.
//
// deltavet:hotpath — refine's row re-selection on matrices with
// missing entries.
func (scr *seedScratch) selectRows(m *matrix.Matrix, cols []int, delta float64, minCols int, dst []int) []int {
	colAdj := scr.colAdj
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
	off := scr.rowOff // refine's medians are spent; reuse their slice
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
	for i, dev := range sum {
		if n := cnt[i]; n >= minCols && dev/float64(n) <= delta {
			dst = append(dst, i)
		}
	}
	return dst
}

// selectRowsComplete is selectRows on a complete matrix, where every
// row is specified in all n = len(cols) ≥ minCols columns (at least
// three in seeding, and the first pair needs two). Only a few
// percent of the rows pass (on the yeast stand-in about 3% survive the
// pre-filter below and 2.5% are accepted), so instead of two passes of
// every row over every column it first rules rows out by a bound.
//
// With y_j = col_j[i] − colAdj[j], a row's deviation sum is
// Σ_j |y_j − off| ≥ max_j y_j − min_j y_j for any offset off, so an
// accepted row's range of y is at most n·δ up to rounding; rangeBound
// gives the threshold that provably covers the rounding. The filter is
// carveRowsColumns' slack-0 test with colAdj in place of the anchor
// row and the bound in place of the width: the columns stream through
// the column-major mirror, four rows per register in rangeRowsAVX2
// with vector set, and the Go loops over an alive list in scr.rows
// otherwise and for the last m.Rows() mod 4 rows (a range only grows
// as columns arrive, and rounds monotonically, so a partial range past
// the bound rules the row out as surely as the full one). The few
// survivors then take exactly selectRows' arithmetic: the offset and
// the deviation sums over the same operands in ascending column order,
// and the same dev/n ≤ δ test. The result is written over the
// survivors in scr.rows.
//
// deltavet:hotpath — refine's row re-selection on complete matrices.
func (scr *seedScratch) selectRowsComplete(m *matrix.Matrix, cols []int, delta float64, vector bool) []int {
	nr, n := m.Rows(), len(cols)
	bound := rangeBound(n, delta)
	colAdj := scr.colAdj
	buf := scr.rows[:nr]
	done, from := 0, 0
	if vector {
		done = rangeRowsAVX2(&m.ColView(0)[0], nr, &cols[0], n, &colAdj[0], bound, &buf[0])
		from = nr &^ 3
	}
	lo, hi := scr.lo, scr.hi
	c0, a0 := m.ColView(cols[0])[:nr], colAdj[cols[0]]
	c1, a1 := m.ColView(cols[1])[:nr], colAdj[cols[1]]
	alive := buf[done : done+nr-from]
	k := 0
	for r := from; r < len(c0); r++ {
		alive[k] = r
		if math.Abs((c1[r]-a1)-(c0[r]-a0)) <= bound {
			k++
		}
	}
	alive = alive[:k]
	for k, r := range alive {
		lo[k], hi[k] = min(c0[r]-a0, c1[r]-a1), max(c0[r]-a0, c1[r]-a1)
	}
	for _, j := range cols[2:] {
		col, a := m.ColView(j), colAdj[j]
		kept := alive[:0]
		for k, r := range alive {
			l, h := lo[k], hi[k]
			if y := col[r] - a; y < l {
				l = y
			} else if y > h {
				h = y
			}
			if h-l <= bound {
				lo[len(kept)], hi[len(kept)] = l, h
				kept = append(kept, r)
			}
		}
		alive = kept
	}
	survivors := buf[:done+len(alive)]
	rows := survivors[:0]
	for _, r := range survivors {
		row := m.RowView(r)
		s := 0.0
		for _, j := range cols {
			s += row[j] - colAdj[j]
		}
		off := s / float64(n)
		dev := 0.0
		for _, j := range cols {
			dev += math.Abs(row[j] - colAdj[j] - off)
		}
		if dev/float64(n) <= delta {
			rows = append(rows, r)
		}
	}
	return rows
}

// rangeBound returns the threshold above which a row's range of
// adjusted values y_j, computed as fl(max − min), rules out
// fl(D/n) ≤ δ for its computed deviation sum D = Σ_j |y_j − off| over
// n terms, whatever its offset off. It is n·δ with a relative margin
// of 1e-9, or +Inf (no pre-filter) where the argument below does not
// hold.
//
// Let u = 2⁻⁵³ and let Y, X be the largest and smallest y_j. If the row
// is accepted, D and every term are finite, and a sum or difference
// that lands in the subnormal range is exact, so every rounding step is
// relative: each term |fl(y_j − off)| ≥ (1−u)·|y_j − off|, the n−1
// additions of nonnegative terms lose at most a factor (1−u) each, and
// with Σ|y_j − off| ≥ Y − X that gives D ≥ (1−u)ⁿ·(Y − X). For a
// normal δ, fl(D/n) ≤ δ implies D/n ≤ δ + ulp(δ)/2 ≤ (1+u)·δ, so
// Y − X ≤ (1+u)/(1−u)ⁿ·n·δ. The bound is fl(fl(n·δ)·c) with
// fl(n·δ) ≥ (1−u)·n·δ and c = fl(1 + 1e-9) ≥ 1 + 1e-9 − u. For
// n + 1 ≤ 2²², (1−u)ⁿ⁺¹ ≥ 1 − 2⁻³¹ and (1 − 2⁻³¹)·(1 + 1e-9 − u) >
// 1 + u, so Y − X ≤ fl(n·δ)·c; rounding is monotone, so the computed
// range is at most the computed bound, overflow included.
//
// A row with a non-finite y_j fails the exact test (its offset and
// then its deviation sum turn infinite or NaN), so it does not matter
// whether the filter keeps it or drops it on a NaN range.
func rangeBound(n int, delta float64) float64 {
	if n+1 > 1<<22 || !(delta >= 0x1p-1022) {
		return math.Inf(1)
	}
	return float64(n) * delta * (1 + 1e-9)
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
// together with their count. xs is sorted in place. A window fits when
// its span, largest minus smallest value, is at most width, as in
// clumps. A run of one infinity spans Inf − Inf = NaN and fits no
// window, but under an infinite width a run from −Inf up to a larger
// value spans Inf and fits; so the scan advances its start only past a
// span above width, never past a NaN one, which it merely does not
// count (every value of such a run is the same infinity). The empty
// slice, and one holding a single infinity only, yields (NaN, 0).
func densestWindow(xs []float64, width float64) (center float64, count int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	bestLo, bestHi := 0, 0
	lo := 0
	for hi := 1; hi <= len(xs); hi++ {
		for lo < hi-1 && xs[hi-1]-xs[lo] > width {
			lo++
		}
		if xs[hi-1]-xs[lo] <= width && hi-lo > bestHi-bestLo {
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
