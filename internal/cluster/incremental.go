// Residue-mass aggregates: the opt-in incremental tier behind the
// FLOC engine's GainMode=incremental scoring.
//
// The tier maintains absSum = Σφ(r_ij) over the cluster's specified
// entries — φ = |·| under ArithmeticMean, squaring under SquaredMean —
// together with each row's and column's share (rowAbs, colAbs). With
// the masses at hand, the residue of a candidate toggle is one
// division (mass/volume) instead of the O(volume) rescan ResidueWith
// performs.
//
// Why Σφ(r_ij) cannot be maintained exactly: toggling one row moves
// the cluster base d_IJ and every attribute base d_Ij, which changes
// the residue of every *remaining* entry — an exact update is
// O(volume), the very scan the tier exists to avoid. The tier instead
// maintains the masses under a fold convention: the contribution of a
// toggled item is the φ-mass of its own entries computed under the
// bases that include the item (post-add bases on insertion,
// pre-removal bases on removal), while every other entry's recorded
// contribution stands. The maintained absSum therefore drifts from
// the from-scratch Σφ(r_ij) as toggles accumulate. The FLOC engine
// refreshes the aggregates at every iteration boundary (through
// Recompute), so by the time a mass is read for scoring it is at most
// one fold away from exact — the bounded-drift suite in internal/floc
// pins how far that one fold can stray, and refreshResidueAggregates
// is the from-scratch definition the deltadebug oracle compares
// against.
package cluster

import (
	"fmt"
	"math"
)

// absOf is φ: the per-entry residue mass under the chosen mean.
func absOf(r float64, mean ResidueMean) float64 {
	if mean == SquaredMean {
		return r * r
	}
	return math.Abs(r)
}

// EnableResidueAggregates turns on the residue-mass aggregate tier
// under the given mean and builds the masses from scratch
// (deltavet:writer). From then on the membership mutators delta-update
// the masses and Recompute refreshes them to exact. Enabling is
// idempotent for the same mean; re-enabling under the other mean
// rebuilds the masses.
func (c *Cluster) EnableResidueAggregates(mean ResidueMean) {
	if c.absTracked && c.absMean == mean {
		return
	}
	c.absTracked = true
	c.absMean = mean
	if len(c.rowAbs) == 0 {
		c.rowAbs = make([]float64, len(c.rowPos))
		c.colAbs = make([]float64, len(c.colPos))
	}
	c.refreshResidueAggregates()
}

// ResidueAggregatesEnabled reports whether the residue-mass tier is
// maintaining the aggregates.
func (c *Cluster) ResidueAggregatesEnabled() bool { return c.absTracked }

// ResidueMass returns the maintained Σφ(r_ij) of the cluster under
// the fold convention (0 when the tier is disabled). Immediately
// after a refresh point — enabling, Recompute, FromOrdered — the mass
// divided by the volume is bit-identical to ResidueWith of the
// enabled mean; between refreshes it drifts by at most the folds
// applied since.
func (c *Cluster) ResidueMass() float64 { return c.absSum }

// RowResidueMass returns member row i's share of the residue mass.
// It panics if i is not a member.
func (c *Cluster) RowResidueMass(i int) float64 {
	if c.rowPos[i] < 0 {
		panic(fmt.Sprintf("cluster: RowResidueMass(%d): not a member", i))
	}
	return c.rowAbs[i]
}

// ColResidueMass returns member column j's share of the residue mass.
// It panics if j is not a member.
func (c *Cluster) ColResidueMass(j int) float64 {
	if c.colPos[j] < 0 {
		panic(fmt.Sprintf("cluster: ColResidueMass(%d): not a member", j))
	}
	return c.colAbs[j]
}

// RowCount returns the number of specified entries member row i has
// over the cluster's columns. It panics if i is not a member.
func (c *Cluster) RowCount(i int) int {
	if c.rowPos[i] < 0 {
		panic(fmt.Sprintf("cluster: RowCount(%d): not a member", i))
	}
	return c.rowCnt[i]
}

// ColCount returns the number of specified entries member column j
// has over the cluster's rows. It panics if j is not a member.
func (c *Cluster) ColCount(j int) int {
	if c.colPos[j] < 0 {
		panic(fmt.Sprintf("cluster: ColCount(%d): not a member", j))
	}
	return c.colCnt[j]
}

// refreshResidueAggregates rebuilds the residue-mass aggregates from
// the matrix under the cluster's current bases (deltavet:writer) —
// the from-scratch definition the delta updates approximate between
// refreshes. absSum accumulates one φ(r_ij) per specified entry in
// exactly the (row, column) order of ResidueWith's scan, so right
// after a refresh ResidueMass()/Volume() reproduces ResidueWith's
// bits.
func (c *Cluster) refreshResidueAggregates() {
	for _, j := range c.memberCols {
		c.colAbs[j] = 0
	}
	c.absSum = 0
	if c.volume == 0 {
		for _, i := range c.memberRows {
			c.rowAbs[i] = 0
		}
		return
	}
	base := c.total / float64(c.volume)
	cols := c.memberCols
	if cap(c.colBases) < len(cols) {
		c.colBases = make([]float64, len(cols))
	}
	bases := c.colBases[:len(cols)]
	for k, j := range cols {
		bases[k] = c.colSum[j] / float64(c.colCnt[j])
	}
	mean := c.absMean
	for _, i := range c.memberRows {
		if c.rowCnt[i] == 0 {
			c.rowAbs[i] = 0
			continue
		}
		rowBase := c.rowSum[i] / float64(c.rowCnt[i])
		row := c.m.RowView(i)
		rsum := 0.0
		for k, j := range cols {
			v := row[j]
			if math.IsNaN(v) {
				continue
			}
			contrib := absOf(v-rowBase-bases[k]+base, mean)
			c.colAbs[j] += contrib
			rsum += contrib
			c.absSum += contrib
		}
		c.rowAbs[i] = rsum
	}
}

// RowInsertionMass returns the φ-mass non-member row i would
// contribute if folded into the cluster, scored against the cluster's
// *current* bases — the item's own base is its mean over the
// cluster's columns, and columns without specified member entries
// fall back to the cluster base — together with the number of
// specified entries scored. This is the insertion-side counterpart of
// the recorded RowResidueMass share a removal reads in O(1); it costs
// O(columns) and walks the membership in internal order, so equal
// cluster bits yield equal results on any goroutine. It panics if i
// is already a member.
func (c *Cluster) RowInsertionMass(i int, mean ResidueMean) (float64, int) {
	if c.rowPos[i] >= 0 {
		panic(fmt.Sprintf("cluster: RowInsertionMass(%d): already a member", i))
	}
	row := c.m.RowView(i)
	sum := 0.0
	cnt := 0
	for _, j := range c.memberCols {
		v := row[j]
		if math.IsNaN(v) {
			continue
		}
		sum += v
		cnt++
	}
	if cnt == 0 {
		return 0, 0
	}
	itemBase := sum / float64(cnt)
	base := 0.0
	if c.volume > 0 {
		base = c.total / float64(c.volume)
	}
	mass := 0.0
	for _, j := range c.memberCols {
		v := row[j]
		if math.IsNaN(v) {
			continue
		}
		colBase := base
		if c.colCnt[j] > 0 {
			colBase = c.colSum[j] / float64(c.colCnt[j])
		}
		mass += absOf(v-itemBase-colBase+base, mean)
	}
	return mass, cnt
}

// ColInsertionMass returns the φ-mass non-member column j would
// contribute if folded into the cluster, scored against the cluster's
// current bases; see RowInsertionMass. It panics if j is already a
// member. The column walk uses ColView: unit-stride bit copies of the
// row-major backing.
func (c *Cluster) ColInsertionMass(j int, mean ResidueMean) (float64, int) {
	if c.colPos[j] >= 0 {
		panic(fmt.Sprintf("cluster: ColInsertionMass(%d): already a member", j))
	}
	col := c.m.ColView(j)
	sum := 0.0
	cnt := 0
	for _, i := range c.memberRows {
		v := col[i]
		if math.IsNaN(v) {
			continue
		}
		sum += v
		cnt++
	}
	if cnt == 0 {
		return 0, 0
	}
	itemBase := sum / float64(cnt)
	base := 0.0
	if c.volume > 0 {
		base = c.total / float64(c.volume)
	}
	mass := 0.0
	for _, i := range c.memberRows {
		v := col[i]
		if math.IsNaN(v) {
			continue
		}
		rowBase := base
		if c.rowCnt[i] > 0 {
			rowBase = c.rowSum[i] / float64(c.rowCnt[i])
		}
		mass += absOf(v-rowBase-itemBase+base, mean)
	}
	return mass, cnt
}

// RefreshResidueAggregates rebuilds the residue masses from scratch
// under the cluster's current bases (deltavet:writer); a no-op while
// the tier is disabled. The FLOC engine calls it after every applied
// action — the apply already pays the exact O(volume) residue rescan,
// and re-anchoring the masses beside it means any estimate read later
// is at most one fold away from the from-scratch definition, so fold
// drift never compounds across applies.
func (c *Cluster) RefreshResidueAggregates() {
	if c.absTracked {
		c.refreshResidueAggregates()
	}
}

// absAddRow folds row i's φ-contributions into the residue-mass
// aggregates under the post-add bases — AddRow calls it last, after
// the sums already include the row (deltavet:writer).
func (c *Cluster) absAddRow(i int) {
	rc := c.rowCnt[i]
	if rc == 0 {
		c.rowAbs[i] = 0
		return
	}
	base := c.total / float64(c.volume)
	rowBase := c.rowSum[i] / float64(rc)
	mean := c.absMean
	row := c.m.RowView(i)
	add := 0.0
	for _, j := range c.memberCols {
		v := row[j]
		if math.IsNaN(v) {
			continue
		}
		contrib := absOf(v-rowBase-c.colSum[j]/float64(c.colCnt[j])+base, mean)
		c.colAbs[j] += contrib
		add += contrib
	}
	c.rowAbs[i] = add
	c.absSum += add
}

// absRemoveRow unwinds row i's φ-contributions under the pre-removal
// bases — RemoveRow calls it first, before any aggregate or
// membership change (deltavet:writer). The contributions are
// recomputed under the current bases rather than read from the stored
// rowAbs share, so the cross-axis colAbs shares stay internally
// consistent with what is subtracted from absSum.
func (c *Cluster) absRemoveRow(i int) {
	rc := c.rowCnt[i]
	if rc > 0 {
		base := c.total / float64(c.volume)
		rowBase := c.rowSum[i] / float64(rc)
		mean := c.absMean
		row := c.m.RowView(i)
		sub := 0.0
		for _, j := range c.memberCols {
			v := row[j]
			if math.IsNaN(v) {
				continue
			}
			contrib := absOf(v-rowBase-c.colSum[j]/float64(c.colCnt[j])+base, mean)
			c.colAbs[j] -= contrib
			sub += contrib
		}
		c.absSum -= sub
	}
	c.rowAbs[i] = 0
}

// absAddCol folds column j's φ-contributions into the residue-mass
// aggregates under the post-add bases — AddCol calls it last
// (deltavet:writer). The column walk uses ColView: unit-stride bit
// copies of the row-major backing, so every operand matches the
// row-major form.
func (c *Cluster) absAddCol(j int) {
	cc := c.colCnt[j]
	if cc == 0 {
		c.colAbs[j] = 0
		return
	}
	base := c.total / float64(c.volume)
	colBase := c.colSum[j] / float64(cc)
	mean := c.absMean
	col := c.m.ColView(j)
	add := 0.0
	for _, i := range c.memberRows {
		v := col[i]
		if math.IsNaN(v) {
			continue
		}
		contrib := absOf(v-c.rowSum[i]/float64(c.rowCnt[i])-colBase+base, mean)
		c.rowAbs[i] += contrib
		add += contrib
	}
	c.colAbs[j] = add
	c.absSum += add
}

// absRemoveCol unwinds column j's φ-contributions under the
// pre-removal bases — RemoveCol calls it first (deltavet:writer); see
// absRemoveRow for the convention.
func (c *Cluster) absRemoveCol(j int) {
	cc := c.colCnt[j]
	if cc > 0 {
		base := c.total / float64(c.volume)
		colBase := c.colSum[j] / float64(cc)
		mean := c.absMean
		col := c.m.ColView(j)
		sub := 0.0
		for _, i := range c.memberRows {
			v := col[i]
			if math.IsNaN(v) {
				continue
			}
			contrib := absOf(v-c.rowSum[i]/float64(c.rowCnt[i])-colBase+base, mean)
			c.rowAbs[i] -= contrib
			sub += contrib
		}
		c.absSum -= sub
	}
	c.colAbs[j] = 0
}
