// Package cluster implements the δ-cluster model of Section 3 of the
// paper: a submatrix identified by a subset of objects (rows) and a
// subset of attributes (columns) of a data matrix that may contain
// missing values.
//
// The package maintains the sums and counts needed to evaluate the
// model's quantities incrementally:
//
//   - the base of an object d_iJ (mean of its specified entries over
//     the cluster's columns), of an attribute d_Ij, and of the cluster
//     d_IJ (Definition 3.3);
//   - the residue r_ij = d_ij − d_iJ − d_Ij + d_IJ of a specified
//     entry, and 0 for a missing entry (Definition 3.4);
//   - the cluster residue: the arithmetic mean of |r_ij| over the
//     cluster's volume, i.e. its specified entries (Definition 3.5),
//     and the mean squared residue of Cheng & Church's baseline;
//   - the volume (Definition 3.2) and the occupancy condition on α
//     (Definition 3.1).
//
// Adding or removing one row (column) costs O(columns) (O(rows));
// computing the residue costs O(volume), matching the complexity
// analysis in Section 4.2 of the paper.
//
// This package is marked deltavet:deterministic — its aggregates feed
// the FLOC engine's replayable bookkeeping, so cmd/deltavet forbids
// unordered map iteration, direct math/rand use and raw float
// equality here.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"deltacluster/internal/matrix"
)

// Cluster is a mutable δ-cluster over a fixed data matrix. The zero
// value is unusable; construct with New or FromSpec. A Cluster holds a
// reference to the matrix and assumes the matrix entries do not change
// while the cluster is alive (the FLOC engine, the generators and the
// examples all follow this discipline).
type Cluster struct {
	m *matrix.Matrix

	rowPos     []int // position of row in memberRows, or -1
	colPos     []int
	memberRows []int
	memberCols []int

	// The aggregate caches below are guarded: they must track the
	// membership sets exactly or every base and residue goes subtly
	// wrong, so only the membership mutators and the wholesale
	// rebuild/copy functions (marked deltavet:writer) may assign
	// them — enforced by cmd/deltavet's residueinvariant pass.
	rowSum []float64 // per matrix row: sum of specified entries over member cols // deltavet:guard
	rowCnt []int     // per matrix row: count of those entries // deltavet:guard
	colSum []float64 // per matrix col: sum of specified entries over member rows // deltavet:guard
	colCnt []int     // per matrix col: count of those entries // deltavet:guard

	total  float64 // sum of all specified entries in the submatrix // deltavet:guard
	volume int     // count of specified entries in the submatrix // deltavet:guard

	// The evaluation pack (pack.go): a dense row-major copy of the
	// member submatrix in internal member order, enabled by EnablePack.
	// Guarded like the aggregates — its blocks must track
	// memberRows/memberCols exactly or the packed residue scan reads
	// the wrong entries.
	pack       []float64 // (r, k) → value at (memberRows[r], memberCols[k]) // deltavet:guard
	packBases  []float64 // r → rowSum/rowCnt of memberRows[r], recached on mutation // deltavet:guard
	packStride int       // floats per pack block; 0 while disabled // deltavet:guard

	// colBases is unguarded scratch reused by Residue to hold the
	// hoisted attribute bases for one scan. It carries no state between
	// calls (fully overwritten before use) and is deliberately not
	// copied by Clone/CopyFrom.
	colBases []float64
}

// New returns an empty δ-cluster over m.
func New(m *matrix.Matrix) *Cluster {
	c := &Cluster{
		m:      m,
		rowPos: make([]int, m.Rows()),
		colPos: make([]int, m.Cols()),
		rowSum: make([]float64, m.Rows()),
		rowCnt: make([]int, m.Rows()),
		colSum: make([]float64, m.Cols()),
		colCnt: make([]int, m.Cols()),
	}
	for i := range c.rowPos {
		c.rowPos[i] = -1
	}
	for j := range c.colPos {
		c.colPos[j] = -1
	}
	return c
}

// FromSpec returns a cluster over m populated with the given rows and
// columns. Duplicate indices are ignored; out-of-range indices panic.
func FromSpec(m *matrix.Matrix, rows, cols []int) *Cluster {
	c := New(m)
	for _, j := range cols {
		if !c.HasCol(j) {
			c.AddCol(j)
		}
	}
	for _, i := range rows {
		if !c.HasRow(i) {
			c.AddRow(i)
		}
	}
	return c
}

// Reset returns c to the state New builds — no members, zero
// aggregates, evaluation pack off — reusing its
// matrix-sized slices (deltavet:writer). It costs O(members): the
// per-row and per-column aggregates of non-members are zero by
// invariant, so only the members' entries need clearing. A Reset
// cluster repopulated like FromSpec carries the bits a fresh FromSpec
// cluster would, so one cluster can score many candidate memberships
// in turn, as anchored seeding does.
func (c *Cluster) Reset() {
	for _, i := range c.memberRows {
		c.rowPos[i] = -1
		c.rowSum[i] = 0
		c.rowCnt[i] = 0
	}
	for _, j := range c.memberCols {
		c.colPos[j] = -1
		c.colSum[j] = 0
		c.colCnt[j] = 0
	}
	c.memberRows = c.memberRows[:0]
	c.memberCols = c.memberCols[:0]
	c.total = 0
	c.volume = 0
	c.pack, c.packBases, c.packStride = nil, nil, 0
}

// FromOrdered returns a cluster over m whose internal member order is
// exactly the given row and column sequences, with aggregates built by
// a wholesale Recompute (deltavet:writer). It is the checkpoint-resume
// counterpart of OrderedRows/OrderedCols: the engine's residue sums
// accumulate in internal member order, so restoring a checkpoint must
// reproduce that order — not merely the membership set — for a resumed
// run to be bit-identical to an uninterrupted one. It returns an error
// on out-of-range or duplicate indices (checkpoints cross a trust
// boundary, unlike FromSpec's in-process callers).
func FromOrdered(m *matrix.Matrix, rows, cols []int) (*Cluster, error) {
	c := New(m)
	for _, i := range rows {
		if i < 0 || i >= m.Rows() {
			return nil, fmt.Errorf("cluster: row index %d out of %d rows", i, m.Rows())
		}
		if c.rowPos[i] >= 0 {
			return nil, fmt.Errorf("cluster: duplicate row index %d", i)
		}
		c.rowPos[i] = len(c.memberRows)
		c.memberRows = append(c.memberRows, i)
	}
	for _, j := range cols {
		if j < 0 || j >= m.Cols() {
			return nil, fmt.Errorf("cluster: column index %d out of %d columns", j, m.Cols())
		}
		if c.colPos[j] >= 0 {
			return nil, fmt.Errorf("cluster: duplicate column index %d", j)
		}
		c.colPos[j] = len(c.memberCols)
		c.memberCols = append(c.memberCols, j)
	}
	c.Recompute()
	return c, nil
}

// Matrix returns the underlying data matrix.
func (c *Cluster) Matrix() *matrix.Matrix { return c.m }

// HasRow reports whether matrix row i is a member.
func (c *Cluster) HasRow(i int) bool { return c.rowPos[i] >= 0 }

// HasCol reports whether matrix column j is a member.
func (c *Cluster) HasCol(j int) bool { return c.colPos[j] >= 0 }

// NumRows returns the number of member rows (|I|).
func (c *Cluster) NumRows() int { return len(c.memberRows) }

// NumCols returns the number of member columns (|J|).
func (c *Cluster) NumCols() int { return len(c.memberCols) }

// Volume returns the number of specified entries in the submatrix
// (Definition 3.2).
func (c *Cluster) Volume() int { return c.volume }

// Rows returns the member row indices in ascending order.
func (c *Cluster) Rows() []int {
	out := append([]int(nil), c.memberRows...)
	sort.Ints(out)
	return out
}

// Cols returns the member column indices in ascending order.
func (c *Cluster) Cols() []int {
	out := append([]int(nil), c.memberCols...)
	sort.Ints(out)
	return out
}

// OrderedRows returns a copy of the member row indices in internal
// (insertion) order. Floating-point aggregates accumulate in this
// order, so it — not the sorted view — is what a checkpoint must
// capture to make a resumed run bit-identical (see FromOrdered).
func (c *Cluster) OrderedRows() []int {
	return append([]int(nil), c.memberRows...)
}

// OrderedCols returns a copy of the member column indices in internal
// (insertion) order; see OrderedRows.
func (c *Cluster) OrderedCols() []int {
	return append([]int(nil), c.memberCols...)
}

// AddRow inserts matrix row i, folding its entries into the guarded
// aggregates (deltavet:writer). It panics if i is already a member.
func (c *Cluster) AddRow(i int) {
	if c.rowPos[i] >= 0 {
		panic(fmt.Sprintf("cluster: AddRow(%d): already a member", i))
	}
	c.rowPos[i] = len(c.memberRows)
	c.memberRows = append(c.memberRows, i)
	row := c.m.RowView(i)
	if c.packStride > 0 {
		c.packAppendRow(row)
	}
	for _, j := range c.memberCols {
		v := row[j]
		if math.IsNaN(v) {
			continue
		}
		c.rowSum[i] += v
		c.rowCnt[i]++
		c.colSum[j] += v
		c.colCnt[j]++
		c.total += v
		c.volume++
	}
	if c.packStride > 0 {
		// Only the new row's sums changed; the other cached bases stand.
		c.packRefreshBase(len(c.memberRows)-1, i)
	}
}

// RemoveRow removes matrix row i, unwinding its entries from the
// guarded aggregates (deltavet:writer). It panics if i is not a
// member.
func (c *Cluster) RemoveRow(i int) {
	pos := c.rowPos[i]
	if pos < 0 {
		panic(fmt.Sprintf("cluster: RemoveRow(%d): not a member", i))
	}
	last := len(c.memberRows) - 1
	moved := c.memberRows[last]
	c.memberRows[pos] = moved
	c.rowPos[moved] = pos
	c.memberRows = c.memberRows[:last]
	c.rowPos[i] = -1
	if c.packStride > 0 {
		c.packRemoveRow(pos)
	}

	row := c.m.RowView(i)
	for _, j := range c.memberCols {
		v := row[j]
		if math.IsNaN(v) {
			continue
		}
		c.colSum[j] -= v
		c.colCnt[j]--
		c.total -= v
		c.volume--
	}
	c.rowSum[i] = 0
	c.rowCnt[i] = 0
}

// AddCol inserts matrix column j, folding its entries into the
// guarded aggregates (deltavet:writer). It panics if j is already a
// member.
func (c *Cluster) AddCol(j int) {
	if c.colPos[j] >= 0 {
		panic(fmt.Sprintf("cluster: AddCol(%d): already a member", j))
	}
	c.colPos[j] = len(c.memberCols)
	c.memberCols = append(c.memberCols, j)
	if c.packStride > 0 && len(c.memberCols) > c.packStride {
		// Widen before the early return too: with no member rows there
		// are no blocks to move, but the stride invariant
		// (packStride ≥ len(memberCols)) must hold before the next
		// packAppendRow.
		c.packGrowStride()
	}
	if len(c.memberRows) == 0 {
		return
	}
	// The column-major mirror turns this scan from stride-Cols to
	// unit-stride; the mirror entries are bit copies of the row-major
	// backing, so every accumulated operand is unchanged. The guard
	// above keeps generators that add columns to empty clusters from
	// forcing a mirror build they will never read.
	col := c.m.ColView(j)
	if c.packStride > 0 {
		c.packAppendCol(col)
	}
	for _, i := range c.memberRows {
		v := col[i]
		if math.IsNaN(v) {
			continue
		}
		c.rowSum[i] += v
		c.rowCnt[i]++
		c.colSum[j] += v
		c.colCnt[j]++
		c.total += v
		c.volume++
	}
	if c.packStride > 0 {
		c.packRefreshBases()
	}
}

// RemoveCol removes matrix column j, unwinding its entries from the
// guarded aggregates (deltavet:writer). It panics if j is not a
// member.
func (c *Cluster) RemoveCol(j int) {
	pos := c.colPos[j]
	if pos < 0 {
		panic(fmt.Sprintf("cluster: RemoveCol(%d): not a member", j))
	}
	last := len(c.memberCols) - 1
	moved := c.memberCols[last]
	c.memberCols[pos] = moved
	c.colPos[moved] = pos
	c.memberCols = c.memberCols[:last]
	c.colPos[j] = -1
	if c.packStride > 0 {
		c.packRemoveCol(pos)
	}

	if len(c.memberRows) > 0 {
		col := c.m.ColView(j) // unit-stride; bit copies of the backing
		for _, i := range c.memberRows {
			v := col[i]
			if math.IsNaN(v) {
				continue
			}
			c.rowSum[i] -= v
			c.rowCnt[i]--
			c.total -= v
			c.volume--
		}
		if c.packStride > 0 {
			c.packRefreshBases()
		}
	}
	c.colSum[j] = 0
	c.colCnt[j] = 0
}

// ToggleRow adds row i if absent and removes it otherwise — the
// paper's Action(x, c) for a row (Section 4.1).
func (c *Cluster) ToggleRow(i int) {
	if c.HasRow(i) {
		c.RemoveRow(i)
	} else {
		c.AddRow(i)
	}
}

// ToggleCol adds column j if absent and removes it otherwise.
func (c *Cluster) ToggleCol(j int) {
	if c.HasCol(j) {
		c.RemoveCol(j)
	} else {
		c.AddCol(j)
	}
}

// Base returns the cluster base d_IJ: the mean of all specified
// entries of the submatrix, or NaN when the volume is 0.
func (c *Cluster) Base() float64 {
	if c.volume == 0 {
		return math.NaN()
	}
	return c.total / float64(c.volume)
}

// RowBase returns the object base d_iJ of member row i, or NaN when
// the row has no specified entries in the cluster. It panics if i is
// not a member.
func (c *Cluster) RowBase(i int) float64 {
	if c.rowPos[i] < 0 {
		panic(fmt.Sprintf("cluster: RowBase(%d): not a member", i))
	}
	if c.rowCnt[i] == 0 {
		return math.NaN()
	}
	return c.rowSum[i] / float64(c.rowCnt[i])
}

// ColBase returns the attribute base d_Ij of member column j, or NaN
// when the column has no specified entries in the cluster. It panics
// if j is not a member.
func (c *Cluster) ColBase(j int) float64 {
	if c.colPos[j] < 0 {
		panic(fmt.Sprintf("cluster: ColBase(%d): not a member", j))
	}
	if c.colCnt[j] == 0 {
		return math.NaN()
	}
	return c.colSum[j] / float64(c.colCnt[j])
}

// EntryResidue returns r_ij for a member entry: d_ij − d_iJ − d_Ij +
// d_IJ when the entry is specified, 0 otherwise (Definition 3.4). It
// panics if (i, j) is not inside the cluster.
func (c *Cluster) EntryResidue(i, j int) float64 {
	if c.rowPos[i] < 0 || c.colPos[j] < 0 {
		panic(fmt.Sprintf("cluster: EntryResidue(%d, %d): outside the cluster", i, j))
	}
	v := c.m.RowView(i)[j]
	if math.IsNaN(v) {
		return 0
	}
	return v - c.rowSum[i]/float64(c.rowCnt[i]) - c.colSum[j]/float64(c.colCnt[j]) + c.total/float64(c.volume)
}

// Residue returns the cluster residue of Definition 3.5: the
// arithmetic mean of |r_ij| over the volume. An empty cluster (volume
// 0) has residue 0: it exhibits no incoherence. Cost: O(volume).
//
// The scan prices every action the FLOC engine applies and every seed
// candidate it scores (gain evaluations use the read-only probes of
// probe.go instead, which replay this scan for the toggled state), so
// the attribute bases d_Ij are hoisted into a scratch slice first (see
// hoistBases); the per-entry arithmetic and accumulation order are
// those of the fused form.
//
// Residue writes that scratch, so concurrent callers must not share a
// cluster; probes may.
//
// deltavet:hotpath — the residue kernel behind every applied action;
// zero allocations in steady state.
func (c *Cluster) Residue() float64 {
	if c.volume == 0 {
		return 0
	}
	base, bases := c.hoistBases()
	sum := 0.0
	if s := c.packStride; s > 0 {
		// Packed fast path: scan the dense member submatrix instead of
		// gathering through memberCols. Pack entry (r, k) is a bit copy
		// of the matrix entry at (memberRows[r], memberCols[k]) and is
		// consumed in the same (r, k) order as the gather below, so
		// every operand and every accumulation step is identical. The
		// row bases come precached from packBases — the same quotient
		// bits the gather path divides out per row — and a zero-count
		// row needs no skip here: its cached base is NaN, but so is
		// every one of its pack entries, so the inner loop contributes
		// exactly the nothing the gather path's skip contributes.
		rbases := c.packBases[:len(c.memberRows)]
		for r, rowBase := range rbases {
			row := c.pack[r*s : r*s+len(bases)]
			for k, v := range row {
				if math.IsNaN(v) {
					continue
				}
				sum += math.Abs(v - rowBase - bases[k] + base)
			}
		}
		return sum / float64(c.volume)
	}
	cols := c.memberCols[:len(bases)] // lets the compiler drop the bases[k] bounds check
	for _, i := range c.memberRows {
		if c.rowCnt[i] == 0 {
			continue
		}
		rowBase := c.rowSum[i] / float64(c.rowCnt[i])
		row := c.m.RowView(i)
		for k, j := range cols {
			v := row[j]
			if math.IsNaN(v) {
				continue
			}
			sum += math.Abs(v - rowBase - bases[k] + base)
		}
	}
	return sum / float64(c.volume)
}

// MeanSquaredResidue returns the mean of r_ij² over the volume: the
// mean squared residue H(I, J) of Cheng & Church's bicluster model,
// which the paper generalizes. FLOC scores with Residue; the bicluster
// baseline scores with this. An empty cluster has 0. Cost: O(volume).
// It writes the same scratch as Residue.
func (c *Cluster) MeanSquaredResidue() float64 {
	if c.volume == 0 {
		return 0
	}
	base, bases := c.hoistBases()
	cols := c.memberCols[:len(bases)]
	sum := 0.0
	for _, i := range c.memberRows {
		if c.rowCnt[i] == 0 {
			continue
		}
		rowBase := c.rowSum[i] / float64(c.rowCnt[i])
		row := c.m.RowView(i)
		for k, j := range cols {
			v := row[j]
			if math.IsNaN(v) {
				continue
			}
			r := v - rowBase - bases[k] + base
			sum += r * r
		}
	}
	return sum / float64(c.volume)
}

// hoistBases returns the cluster base d_IJ and the attribute bases
// d_Ij of the member columns, in member order, in the colBases
// scratch: one divide per member column instead of one per specified
// entry. The hoist is operand-preserving — each consumed base is the
// same division of the same bits, just computed once — so a scan is
// bit-identical to the fused form. A column whose member entries are
// all missing (colCnt == 0) hoists to 0/0 = NaN, but every entry of
// such a column is skipped, so the value is never consumed. The
// volume must be positive.
//
// deltavet:hotpath — the residue scans' prologue.
func (c *Cluster) hoistBases() (base float64, bases []float64) {
	cols := c.memberCols
	if cap(c.colBases) < len(cols) {
		//deltavet:ignore hotalloc reason=amortized scratch growth; only the first scans after a column-count high-water mark allocate
		c.colBases = make([]float64, len(cols))
	}
	bases = c.colBases[:len(cols)]
	for k, j := range cols {
		bases[k] = c.colSum[j] / float64(c.colCnt[j])
	}
	return c.total / float64(c.volume), bases
}

// SatisfiesOccupancy reports whether every member row and column meets
// the occupancy threshold α of Definition 3.1: each member row must
// have specified values on at least α·|J| of the cluster's columns and
// each member column on at least α·|I| of the cluster's rows. An
// empty cluster trivially satisfies any α.
func (c *Cluster) SatisfiesOccupancy(alpha float64) bool {
	nRows, nCols := len(c.memberRows), len(c.memberCols)
	if nRows == 0 || nCols == 0 {
		return true
	}
	for _, i := range c.memberRows {
		if float64(c.rowCnt[i]) < alpha*float64(nCols) {
			return false
		}
	}
	for _, j := range c.memberCols {
		if float64(c.colCnt[j]) < alpha*float64(nRows) {
			return false
		}
	}
	return true
}

// Diameter returns the diagonal length of the minimum bounding box of
// the member rows viewed as points in the subspace of member columns,
// the statistic Table 1 reports. Missing entries are ignored per
// dimension; dimensions with fewer than one specified value contribute
// 0. An empty cluster has diameter 0.
func (c *Cluster) Diameter() float64 {
	if len(c.memberRows) == 0 || len(c.memberCols) == 0 {
		return 0
	}
	sum := 0.0
	for _, j := range c.memberCols {
		lo, hi := math.Inf(1), math.Inf(-1)
		col := c.m.ColView(j) // unit-stride; bit copies of the backing
		for _, i := range c.memberRows {
			v := col[i]
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
		if hi > lo {
			d := hi - lo
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

// Overlap returns the number of matrix cells (specified or not) shared
// by the submatrices of c and o: |I∩I'| × |J∩J'|. The FLOC overlap
// constraint is expressed against this count.
func (c *Cluster) Overlap(o *Cluster) int {
	rows, cols := c.intersection(o)
	return rows * cols
}

// intersection returns |I∩I'| and |J∩J'|, walking the smaller member
// list of each axis.
func (c *Cluster) intersection(o *Cluster) (rows, cols int) {
	a, b := c, o
	if len(b.memberRows) < len(a.memberRows) {
		a, b = b, a
	}
	for _, i := range a.memberRows {
		if b.rowPos[i] >= 0 {
			rows++
		}
	}
	a, b = c, o
	if len(b.memberCols) < len(a.memberCols) {
		a, b = b, a
	}
	for _, j := range a.memberCols {
		if b.colPos[j] >= 0 {
			cols++
		}
	}
	return rows, cols
}

// Clone returns an independent copy sharing the same data matrix.
func (c *Cluster) Clone() *Cluster {
	return &Cluster{
		m:          c.m,
		rowPos:     append([]int(nil), c.rowPos...),
		colPos:     append([]int(nil), c.colPos...),
		memberRows: append([]int(nil), c.memberRows...),
		memberCols: append([]int(nil), c.memberCols...),
		rowSum:     append([]float64(nil), c.rowSum...),
		rowCnt:     append([]int(nil), c.rowCnt...),
		colSum:     append([]float64(nil), c.colSum...),
		colCnt:     append([]int(nil), c.colCnt...),
		total:      c.total,
		volume:     c.volume,
		pack:       append([]float64(nil), c.pack...),
		packBases:  append([]float64(nil), c.packBases...),
		packStride: c.packStride,
	}
}

// CopyFrom makes c an exact copy of o (which must be over the same
// matrix shape), guarded aggregates included (deltavet:writer). It
// reuses c's storage, so restoring a checkpoint in the FLOC engine
// does not allocate.
func (c *Cluster) CopyFrom(o *Cluster) {
	c.m = o.m
	copy(c.rowPos, o.rowPos)
	copy(c.colPos, o.colPos)
	c.memberRows = append(c.memberRows[:0], o.memberRows...)
	c.memberCols = append(c.memberCols[:0], o.memberCols...)
	copy(c.rowSum, o.rowSum)
	copy(c.rowCnt, o.rowCnt)
	copy(c.colSum, o.colSum)
	copy(c.colCnt, o.colCnt)
	c.total = o.total
	c.volume = o.volume
	if o.packStride > 0 {
		// Adopt the source's pack wholesale (same matrix shape → same
		// stride); reusing c's backing keeps the copy allocation-free
		// once warm.
		c.packStride = o.packStride
		c.packSetLen(len(c.memberRows))
		copy(c.pack, o.pack)
		copy(c.packBases, o.packBases)
	} else if c.packStride > 0 {
		c.rebuildPack()
	}
}

// Recompute rebuilds all guarded aggregates from the matrix
// (deltavet:writer). Incremental updates accumulate floating-point
// drift over very long runs; the FLOC engine calls Recompute at
// iteration boundaries so that reported residues are exact.
func (c *Cluster) Recompute() {
	for _, i := range c.memberRows {
		c.rowSum[i] = 0
		c.rowCnt[i] = 0
	}
	for _, j := range c.memberCols {
		c.colSum[j] = 0
		c.colCnt[j] = 0
	}
	c.total = 0
	c.volume = 0
	for _, i := range c.memberRows {
		row := c.m.RowView(i)
		for _, j := range c.memberCols {
			v := row[j]
			if math.IsNaN(v) {
				continue
			}
			c.rowSum[i] += v
			c.rowCnt[i]++
			c.colSum[j] += v
			c.colCnt[j]++
			c.total += v
			c.volume++
		}
	}
	if c.packStride > 0 {
		c.packRefreshBases()
	}
}

// Spec is an immutable snapshot of a cluster's identity: its member
// rows and columns in ascending order.
type Spec struct {
	Rows []int
	Cols []int
}

// Spec captures the cluster's current membership.
func (c *Cluster) Spec() Spec {
	return Spec{Rows: c.Rows(), Cols: c.Cols()}
}

// Stats summarizes a cluster with the quantities the paper's Table 1
// reports.
type Stats struct {
	NumRows  int
	NumCols  int
	Volume   int
	Residue  float64
	Diameter float64
}

// Stats computes the cluster's summary statistics.
func (c *Cluster) Stats() Stats {
	return Stats{
		NumRows:  c.NumRows(),
		NumCols:  c.NumCols(),
		Volume:   c.Volume(),
		Residue:  c.Residue(),
		Diameter: c.Diameter(),
	}
}

// ResidueOf computes the residue of the δ-cluster defined by the given
// rows and columns of m without retaining the cluster.
func ResidueOf(m *matrix.Matrix, rows, cols []int) float64 {
	return FromSpec(m, rows, cols).Residue()
}
