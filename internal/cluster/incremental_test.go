package cluster

import (
	"fmt"
	"math"
	"testing"

	"deltacluster/internal/stats"
)

// referenceMasses is the from-scratch definition of the residue-mass
// aggregates, written as the naive double loop with no hoisting: for
// every specified entry of the cluster, φ(r_ij) is accumulated into
// the entry's row share, column share and the total. It deliberately
// shares no code with refreshResidueAggregates — it is the oracle the
// maintained masses are judged against.
func referenceMasses(c *Cluster, mean ResidueMean) (total float64, rowM, colM map[int]float64) {
	rowM = make(map[int]float64)
	colM = make(map[int]float64)
	for _, i := range c.memberRows {
		rowM[i] = 0
	}
	for _, j := range c.memberCols {
		colM[j] = 0
	}
	if c.volume == 0 {
		return 0, rowM, colM
	}
	base := c.total / float64(c.volume)
	for _, i := range c.memberRows {
		if c.rowCnt[i] == 0 {
			continue
		}
		rowBase := c.rowSum[i] / float64(c.rowCnt[i])
		row := c.m.RowView(i)
		for _, j := range c.memberCols {
			v := row[j]
			if math.IsNaN(v) {
				continue
			}
			contrib := absOf(v-rowBase-c.colSum[j]/float64(c.colCnt[j])+base, mean)
			rowM[i] += contrib
			colM[j] += contrib
			total += contrib
		}
	}
	return total, rowM, colM
}

// referenceCount counts row i's specified entries over the cluster's
// columns straight from the matrix.
func referenceCount(c *Cluster, isRow bool, idx int) int {
	cnt := 0
	if isRow {
		row := c.m.RowView(idx)
		for _, j := range c.memberCols {
			if !math.IsNaN(row[j]) {
				cnt++
			}
		}
	} else {
		for _, i := range c.memberRows {
			if !math.IsNaN(c.m.Get(i, idx)) {
				cnt++
			}
		}
	}
	return cnt
}

// assertMassesMatchReference compares every maintained aggregate of an
// anchored (just-refreshed) cluster against the from-scratch oracle,
// bit for bit.
func assertMassesMatchReference(t *testing.T, c *Cluster, mean ResidueMean, ctx string) {
	t.Helper()
	total, rowM, colM := referenceMasses(c, mean)
	if math.Float64bits(c.ResidueMass()) != math.Float64bits(total) {
		t.Fatalf("%s: ResidueMass=%x (%v), reference %x (%v)",
			ctx, math.Float64bits(c.ResidueMass()), c.ResidueMass(), math.Float64bits(total), total)
	}
	for _, i := range c.Rows() {
		if math.Float64bits(c.RowResidueMass(i)) != math.Float64bits(rowM[i]) {
			t.Fatalf("%s: RowResidueMass(%d)=%v, reference %v", ctx, i, c.RowResidueMass(i), rowM[i])
		}
		if got, want := c.RowCount(i), referenceCount(c, true, i); got != want {
			t.Fatalf("%s: RowCount(%d)=%d, reference %d", ctx, i, got, want)
		}
	}
	for _, j := range c.Cols() {
		if math.Float64bits(c.ColResidueMass(j)) != math.Float64bits(colM[j]) {
			t.Fatalf("%s: ColResidueMass(%d)=%v, reference %v", ctx, j, c.ColResidueMass(j), colM[j])
		}
		if got, want := c.ColCount(j), referenceCount(c, false, j); got != want {
			t.Fatalf("%s: ColCount(%d)=%d, reference %d", ctx, j, got, want)
		}
	}
	// The refreshed mass over the volume must reproduce ResidueWith's
	// bits: the incremental tier's scoring divides exactly this pair.
	if c.Volume() > 0 {
		got := c.ResidueMass() / float64(c.Volume())
		want := c.ResidueWith(mean)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: ResidueMass/Volume=%v, ResidueWith=%v", ctx, got, want)
		}
	}
}

// TestResidueAggregatesRefreshedWalk mirrors the FLOC engine's
// maintenance discipline — every applied toggle is followed by a
// refresh — and asserts that at every such anchor the masses equal the
// from-scratch oracle bit-for-bit, across means, missing densities and
// pack on/off.
func TestResidueAggregatesRefreshedWalk(t *testing.T) {
	for _, mean := range []ResidueMean{ArithmeticMean, SquaredMean} {
		for _, missing := range []float64{0, 0.05, 0.4, 0.9} {
			for seed := int64(1); seed <= 3; seed++ {
				m := identityMatrix(seed, 31, 13, missing)
				rng := stats.NewRNG(seed*7919 + int64(mean))
				c := New(m)
				if seed%2 == 0 {
					c.EnablePack()
				}
				c.EnableResidueAggregates(mean)
				for step := 0; step < 250; step++ {
					if rng.Bool(0.5) {
						c.ToggleRow(rng.Intn(m.Rows()))
					} else {
						c.ToggleCol(rng.Intn(m.Cols()))
					}
					c.RefreshResidueAggregates()
					assertMassesMatchReference(t, c, mean, "refreshed walk")
				}
			}
		}
	}
}

// foldShareRow computes, by brute force from the cluster's *current*
// sums, member row i's φ-mass under the current bases: the exact
// contribution the fold convention records for an insertion (called
// after the add, when the sums include the row) or unwinds for a
// removal (called before the remove). Returns the total and the
// per-column split.
func foldShareRow(c *Cluster, i int, mean ResidueMean) (float64, map[int]float64) {
	per := make(map[int]float64)
	rc := c.rowCnt[i]
	if rc == 0 {
		return 0, per
	}
	base := c.total / float64(c.volume)
	rowBase := c.rowSum[i] / float64(rc)
	row := c.m.RowView(i)
	tot := 0.0
	for _, j := range c.memberCols {
		v := row[j]
		if math.IsNaN(v) {
			continue
		}
		contrib := absOf(v-rowBase-c.colSum[j]/float64(c.colCnt[j])+base, mean)
		per[j] = contrib
		tot += contrib
	}
	return tot, per
}

// foldShareCol is foldShareRow's column twin.
func foldShareCol(c *Cluster, j int, mean ResidueMean) (float64, map[int]float64) {
	per := make(map[int]float64)
	cc := c.colCnt[j]
	if cc == 0 {
		return 0, per
	}
	base := c.total / float64(c.volume)
	colBase := c.colSum[j] / float64(cc)
	col := c.m.ColView(j)
	tot := 0.0
	for _, i := range c.memberRows {
		v := col[i]
		if math.IsNaN(v) {
			continue
		}
		contrib := absOf(v-c.rowSum[i]/float64(c.rowCnt[i])-colBase+base, mean)
		per[i] = contrib
		tot += contrib
	}
	return tot, per
}

// TestResidueAggregatesSingleFold pins the fold convention's algebra
// bit-for-bit, one toggle deep from an anchored (just-refreshed)
// state — the deepest the FLOC engine ever reads the masses, since
// every applied action is followed by a refresh and evaluations probe
// without toggling. From the anchor, one toggle must move the
// aggregates by exactly the documented contribution: the toggled
// item's φ-mass under post-add bases on insertion and under
// pre-removal bases on removal, with the matching per-entry cross-axis
// splits.
func TestResidueAggregatesSingleFold(t *testing.T) {
	bits := math.Float64bits
	for _, mean := range []ResidueMean{ArithmeticMean, SquaredMean} {
		for seed := int64(1); seed <= 4; seed++ {
			m := identityMatrix(seed+50, 29, 11, 0.15)
			rng := stats.NewRNG(seed * 1237)
			c := New(m)
			c.EnableResidueAggregates(mean)
			for step := 0; step < 400; step++ {
				c.RefreshResidueAggregates()
				anchorSum := c.absSum
				rowA := append([]float64(nil), c.rowAbs...)
				colA := append([]float64(nil), c.colAbs...)
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("mean=%v seed=%d step=%d: %s", mean, seed, step, fmt.Sprintf(format, args...))
				}
				if rng.Bool(0.5) {
					i := rng.Intn(m.Rows())
					if c.HasRow(i) {
						tot, per := foldShareRow(c, i, mean)
						c.ToggleRow(i)
						if bits(c.absSum) != bits(anchorSum-tot) {
							fail("remove row %d: absSum=%v, want anchor−share=%v", i, c.absSum, anchorSum-tot)
						}
						if c.rowAbs[i] != 0 {
							fail("remove row %d: own share %v, want 0", i, c.rowAbs[i])
						}
						for _, j := range c.Cols() {
							if bits(c.colAbs[j]) != bits(colA[j]-per[j]) {
								fail("remove row %d: colAbs[%d]=%v, want %v", i, j, c.colAbs[j], colA[j]-per[j])
							}
						}
					} else {
						c.ToggleRow(i)
						tot, per := foldShareRow(c, i, mean)
						if bits(c.rowAbs[i]) != bits(tot) {
							fail("add row %d: own share %v, want %v", i, c.rowAbs[i], tot)
						}
						if bits(c.absSum) != bits(anchorSum+tot) {
							fail("add row %d: absSum=%v, want anchor+share=%v", i, c.absSum, anchorSum+tot)
						}
						for _, j := range c.Cols() {
							if bits(c.colAbs[j]) != bits(colA[j]+per[j]) {
								fail("add row %d: colAbs[%d]=%v, want %v", i, j, c.colAbs[j], colA[j]+per[j])
							}
						}
					}
				} else {
					j := rng.Intn(m.Cols())
					if c.HasCol(j) {
						tot, per := foldShareCol(c, j, mean)
						c.ToggleCol(j)
						if bits(c.absSum) != bits(anchorSum-tot) {
							fail("remove col %d: absSum=%v, want anchor−share=%v", j, c.absSum, anchorSum-tot)
						}
						if c.colAbs[j] != 0 {
							fail("remove col %d: own share %v, want 0", j, c.colAbs[j])
						}
						for _, i := range c.Rows() {
							if bits(c.rowAbs[i]) != bits(rowA[i]-per[i]) {
								fail("remove col %d: rowAbs[%d]=%v, want %v", j, i, c.rowAbs[i], rowA[i]-per[i])
							}
						}
					} else {
						c.ToggleCol(j)
						tot, per := foldShareCol(c, j, mean)
						if bits(c.colAbs[j]) != bits(tot) {
							fail("add col %d: own share %v, want %v", j, c.colAbs[j], tot)
						}
						if bits(c.absSum) != bits(anchorSum+tot) {
							fail("add col %d: absSum=%v, want anchor+share=%v", j, c.absSum, anchorSum+tot)
						}
						for _, i := range c.Rows() {
							if bits(c.rowAbs[i]) != bits(rowA[i]+per[i]) {
								fail("add col %d: rowAbs[%d]=%v, want %v", j, i, c.rowAbs[i], rowA[i]+per[i])
							}
						}
					}
				}
				// Entry counts are maintained exactly regardless of folds.
				for _, i := range c.Rows() {
					if got, want := c.RowCount(i), referenceCount(c, true, i); got != want {
						fail("RowCount(%d)=%d, reference %d", i, got, want)
					}
				}
				for _, j := range c.Cols() {
					if got, want := c.ColCount(j), referenceCount(c, false, j); got != want {
						fail("ColCount(%d)=%d, reference %d", j, got, want)
					}
				}
			}
		}
	}
}

// TestInsertionMassReference checks RowInsertionMass/ColInsertionMass
// against an in-test brute-force implementation of the documented
// convention (candidate scored under the cluster's current bases, its
// own base being its mean over the membership), bit for bit, across
// random cluster states.
func TestInsertionMassReference(t *testing.T) {
	refRow := func(c *Cluster, i int, mean ResidueMean) (float64, int) {
		sum, cnt := 0.0, 0
		for _, j := range c.memberCols {
			if v := c.m.Get(i, j); !math.IsNaN(v) {
				sum += v
				cnt++
			}
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
			v := c.m.Get(i, j)
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
	refCol := func(c *Cluster, j int, mean ResidueMean) (float64, int) {
		sum, cnt := 0.0, 0
		for _, i := range c.memberRows {
			if v := c.m.Get(i, j); !math.IsNaN(v) {
				sum += v
				cnt++
			}
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
			v := c.m.Get(i, j)
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

	for _, mean := range []ResidueMean{ArithmeticMean, SquaredMean} {
		for seed := int64(1); seed <= 3; seed++ {
			m := identityMatrix(seed+130, 19, 14, 0.25)
			rng := stats.NewRNG(seed * 577)
			c := New(m)
			for step := 0; step < 150; step++ {
				if rng.Bool(0.5) {
					c.ToggleRow(rng.Intn(m.Rows()))
				} else {
					c.ToggleCol(rng.Intn(m.Cols()))
				}
				for i := 0; i < m.Rows(); i++ {
					if c.HasRow(i) {
						continue
					}
					got, gotCnt := c.RowInsertionMass(i, mean)
					want, wantCnt := refRow(c, i, mean)
					if gotCnt != wantCnt || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("mean=%v seed=%d step=%d: RowInsertionMass(%d)=(%v,%d), reference (%v,%d)",
							mean, seed, step, i, got, gotCnt, want, wantCnt)
					}
				}
				for j := 0; j < m.Cols(); j++ {
					if c.HasCol(j) {
						continue
					}
					got, gotCnt := c.ColInsertionMass(j, mean)
					want, wantCnt := refCol(c, j, mean)
					if gotCnt != wantCnt || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("mean=%v seed=%d step=%d: ColInsertionMass(%d)=(%v,%d), reference (%v,%d)",
							mean, seed, step, j, got, gotCnt, want, wantCnt)
					}
				}
			}
		}
	}
}

// TestResidueAggregatesCloneCopyFrom asserts the engine's snapshot
// paths carry the masses bit-for-bit: Clone duplicates them, CopyFrom
// adopts the source's, and a tracked destination refreshed from an
// untracked source rebuilds them from scratch.
func TestResidueAggregatesCloneCopyFrom(t *testing.T) {
	m := identityMatrix(7, 21, 12, 0.1)
	rng := stats.NewRNG(99)
	src := New(m)
	src.EnablePack()
	src.EnableResidueAggregates(ArithmeticMean)
	for step := 0; step < 60; step++ {
		if rng.Bool(0.5) {
			src.ToggleRow(rng.Intn(m.Rows()))
		} else {
			src.ToggleCol(rng.Intn(m.Cols()))
		}
	}

	cl := src.Clone()
	if !cl.ResidueAggregatesEnabled() {
		t.Fatal("Clone dropped the residue-aggregate tier")
	}
	if math.Float64bits(cl.absSum) != math.Float64bits(src.absSum) {
		t.Fatalf("Clone absSum %v, source %v", cl.absSum, src.absSum)
	}
	for i := range src.rowAbs {
		if math.Float64bits(cl.rowAbs[i]) != math.Float64bits(src.rowAbs[i]) {
			t.Fatalf("Clone rowAbs[%d] %v, source %v", i, cl.rowAbs[i], src.rowAbs[i])
		}
	}

	// CopyFrom into a cluster that has never tracked masses.
	dst := New(m)
	dst.CopyFrom(src)
	if !dst.ResidueAggregatesEnabled() {
		t.Fatal("CopyFrom did not adopt the residue-aggregate tier")
	}
	if math.Float64bits(dst.absSum) != math.Float64bits(src.absSum) {
		t.Fatalf("CopyFrom absSum %v, source %v", dst.absSum, src.absSum)
	}
	for j := range src.colAbs {
		if math.Float64bits(dst.colAbs[j]) != math.Float64bits(src.colAbs[j]) {
			t.Fatalf("CopyFrom colAbs[%d] %v, source %v", j, dst.colAbs[j], src.colAbs[j])
		}
	}

	// Tracked destination, untracked source: the masses must be
	// rebuilt from scratch for the adopted membership.
	plain := New(m)
	plain.ToggleRow(3)
	plain.ToggleRow(8)
	plain.ToggleCol(2)
	plain.ToggleCol(5)
	tracked := New(m)
	tracked.EnableResidueAggregates(ArithmeticMean)
	tracked.ToggleRow(1)
	tracked.CopyFrom(plain)
	if !tracked.ResidueAggregatesEnabled() {
		t.Fatal("CopyFrom from untracked source disabled the tier")
	}
	assertMassesMatchReference(t, tracked, ArithmeticMean, "CopyFrom untracked source")
}

// TestEnableResidueAggregatesModes covers enablement semantics:
// enabling is idempotent for the same mean, re-enabling under the
// other mean rebuilds the masses for it, and Recompute lands the
// masses back on the from-scratch definition.
func TestEnableResidueAggregatesModes(t *testing.T) {
	m := identityMatrix(11, 15, 9, 0.1)
	c := New(m)
	for i := 0; i < 9; i++ {
		c.ToggleRow(i)
	}
	for j := 0; j < 6; j++ {
		c.ToggleCol(j)
	}
	c.EnableResidueAggregates(ArithmeticMean)
	assertMassesMatchReference(t, c, ArithmeticMean, "enable arithmetic")
	before := c.absSum
	c.EnableResidueAggregates(ArithmeticMean)
	if math.Float64bits(before) != math.Float64bits(c.absSum) {
		t.Fatalf("re-enabling same mean changed absSum: %v -> %v", before, c.absSum)
	}
	c.EnableResidueAggregates(SquaredMean)
	assertMassesMatchReference(t, c, SquaredMean, "enable squared")
	c.ToggleRow(12)
	c.ToggleCol(7)
	c.Recompute()
	assertMassesMatchReference(t, c, SquaredMean, "after Recompute")
}
