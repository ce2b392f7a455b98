package cluster

import (
	"fmt"
	"math"
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// exactBits captures every field of the cluster that any later
// computation can observe, with floats rendered as raw bit patterns:
// membership in internal order, position indexes, counts, sums, the
// evaluation pack and the residue masses. Two clusters with equal
// exactBits behave identically under every future operation.
func exactBits(c *Cluster) string {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return fmt.Sprintf("mr=%v mc=%v rp=%v cp=%v vol=%d rc=%v cc=%v rs=%x cs=%x tot=%x pack=%x pb=%x ps=%d ra=%x ca=%x as=%x",
		c.memberRows, c.memberCols, c.rowPos, c.colPos, c.volume,
		c.rowCnt, c.colCnt, bits(c.rowSum), bits(c.colSum),
		math.Float64bits(c.total), bits(c.pack), bits(c.packBases), c.packStride,
		bits(c.rowAbs), bits(c.colAbs), math.Float64bits(c.absSum))
}

// probeMatrix fills a matrix with a mix of lattice values (ties), signed
// zeros and values across six magnitudes, leaving the given fraction
// missing. Its last row and last column are entirely missing.
func probeMatrix(seed int64, rows, cols int, missing float64) *matrix.Matrix {
	m := matrix.New(rows, cols)
	rng := stats.NewRNG(seed)
	for i := 0; i < rows-1; i++ {
		for j := 0; j < cols-1; j++ {
			if rng.Bool(missing) {
				continue
			}
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = float64(rng.Intn(5)) * 0.5
			case 1:
				v = math.Copysign(0, float64(rng.Intn(2))-0.5)
			default:
				v = rng.Uniform(-1, 1) * math.Pow(10, float64(rng.Intn(6)-3))
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// probeStates walks a packed cluster through random toggles and calls
// visit at every state, the empty and row-less/column-less states
// included. Odd seeds also track the residue masses, so exactBits
// covers them too.
func probeStates(t *testing.T, m *matrix.Matrix, seed int64, steps int, visit func(c *Cluster)) {
	t.Helper()
	rng := stats.NewRNG(seed)
	c := New(m)
	c.EnablePack()
	if seed%2 == 1 {
		c.EnableResidueAggregates(ArithmeticMean)
	}
	visit(c)
	for step := 0; step < steps; step++ {
		if rng.Bool(0.5) {
			c.ToggleRow(rng.Intn(m.Rows()))
		} else {
			c.ToggleCol(rng.Intn(m.Cols()))
		}
		visit(c)
	}
	// Drain the rows, then the columns, so the walk ends on a row-less
	// and then an empty cluster.
	for _, i := range c.Rows() {
		c.RemoveRow(i)
		visit(c)
	}
	for _, j := range c.Cols() {
		c.RemoveCol(j)
		visit(c)
	}
}

// toggled returns a clone of c with the item really toggled.
func toggled(c *Cluster, isRow bool, idx int) *Cluster {
	ref := c.Clone()
	if isRow {
		ref.ToggleRow(idx)
	} else {
		ref.ToggleCol(idx)
	}
	return ref
}

// checkProbe compares every answer of a loaded probe, residue under
// both means included, with the really toggled clone.
func checkProbe(t *testing.T, p *Probe, ref, other *Cluster, what string) {
	t.Helper()
	if p.Volume() != ref.Volume() || p.NumRows() != ref.NumRows() || p.NumCols() != ref.NumCols() {
		t.Fatalf("%s: probe shape vol=%d %dx%d, toggled %d %dx%d", what,
			p.Volume(), p.NumRows(), p.NumCols(), ref.Volume(), ref.NumRows(), ref.NumCols())
	}
	for _, mean := range []ResidueMean{ArithmeticMean, SquaredMean} {
		got, want := p.Residue(mean), ref.ResidueWith(mean)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s mean=%v: probe residue %x (%v), toggled %x (%v)", what, mean,
				math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
	// Occupancy at fixed thresholds and at the α·n equality boundaries
	// of the toggled state's own counts.
	alphas := []float64{0, 0.25, 0.5, 0.6, 2.0 / 3, 0.75, 1}
	if ref.NumCols() > 0 {
		for _, i := range ref.memberRows {
			alphas = append(alphas, float64(ref.rowCnt[i])/float64(ref.NumCols()))
		}
	}
	if ref.NumRows() > 0 {
		for _, j := range ref.memberCols {
			alphas = append(alphas, float64(ref.colCnt[j])/float64(ref.NumRows()))
		}
	}
	for _, a := range alphas {
		if got, want := p.SatisfiesOccupancy(a), ref.SatisfiesOccupancy(a); got != want {
			t.Fatalf("%s: probe occupancy(%v) = %v, toggled %v", what, a, got, want)
		}
	}
	if got, want := p.Overlap(other), ref.Overlap(other); got != want {
		t.Fatalf("%s: probe overlap %d, toggled %d", what, got, want)
	}
}

// TestProbeMatchesToggledClone is the purity and exactness property the
// FLOC decide phase stands on: for every cluster state and every row
// and column, a probe leaves the cluster's bits untouched and answers
// exactly what the really toggled cluster answers — residue bits under
// both means, volume, shape, occupancy and overlap.
func TestProbeMatchesToggledClone(t *testing.T) {
	for _, missing := range []float64{0, 0.3, 0.9} {
		for seed := int64(1); seed <= 4; seed++ {
			m := probeMatrix(seed*13+int64(missing*10), 11, 9, missing)
			other := FromSpec(m, []int{0, 2, 4, 6, 8, 10}, []int{1, 2, 3, 8})
			var p Probe
			state := 0
			probeStates(t, m, seed, 60, func(c *Cluster) {
				state++
				before := exactBits(c)
				for _, isRow := range []bool{true, false} {
					n := m.Cols()
					if isRow {
						n = m.Rows()
					}
					for idx := 0; idx < n; idx++ {
						p.Load(c, isRow, idx)
						what := fmt.Sprintf("missing=%v seed=%d state=%d isRow=%v idx=%d member=%v",
							missing, seed, state, isRow, idx, !p.Inserts())
						checkProbe(t, &p, toggled(c, isRow, idx), other, what)
					}
				}
				if after := exactBits(c); after != before {
					t.Fatalf("missing=%v seed=%d state=%d: probing changed the cluster:\nbefore %s\nafter  %s",
						missing, seed, state, before, after)
				}
			})
		}
	}
}

// TestRowInsertionResiduesBatches checks the batched kernel at every
// width from 1 to 4, duplicate candidates included, against the
// residue of each candidate really inserted.
func TestRowInsertionResiduesBatches(t *testing.T) {
	for _, missing := range []float64{0, 0.3, 0.9} {
		for seed := int64(1); seed <= 3; seed++ {
			m := probeMatrix(seed*7+int64(missing*10), 12, 8, missing)
			rng := stats.NewRNG(seed * 101)
			var ps [4]Probe
			var out [4]float64
			probeStates(t, m, seed+50, 50, func(c *Cluster) {
				var cands []int
				for i := 0; i < m.Rows(); i++ {
					if !c.HasRow(i) {
						cands = append(cands, i)
					}
				}
				if len(cands) == 0 {
					return
				}
				before := exactBits(c)
				for trial := 0; trial < 8; trial++ {
					w := 1 + trial%4
					rows := make([]int, w)
					for q := range rows {
						rows[q] = cands[rng.Intn(len(cands))]
					}
					if trial == 7 {
						rows[1] = rows[0] // a duplicate candidate
					}
					for _, mean := range []ResidueMean{ArithmeticMean, SquaredMean} {
						for q, i := range rows {
							ps[q].Load(c, true, i)
						}
						RowInsertionResidues(ps[:w], mean, out[:w])
						for q, i := range rows {
							want := toggled(c, true, i).ResidueWith(mean)
							if math.Float64bits(out[q]) != math.Float64bits(want) {
								t.Fatalf("missing=%v seed=%d rows=%v mean=%v lane %d: batched %v, toggled %v",
									missing, seed, rows, mean, q, out[q], want)
							}
						}
					}
				}
				if after := exactBits(c); after != before {
					t.Fatalf("batched probes changed the cluster")
				}
			})
		}
	}
}

// TestProbeHandPicked pins the corner states by name: removals from
// the middle and the end of the member order (the swap-with-last scan
// orders), an all-missing member row, and insertions into row-less and
// column-less clusters.
func TestProbeHandPicked(t *testing.T) {
	nan := math.NaN()
	m, err := matrix.NewFromRows([][]float64{
		{1, nan, 3, 4, 0.5},
		{nan, nan, nan, nan, nan},
		{2, 5, nan, 1, 2},
		{7, 8, 9, nan, 7},
		{-1, 2, 2, 2, math.Copysign(0, -1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func(rows, cols []int) *Cluster {
		c := FromSpec(m, rows, cols)
		c.EnablePack()
		return c
	}
	other := build([]int{0, 3}, []int{0, 4})
	var p Probe
	for _, tc := range []struct {
		name       string
		rows, cols []int
		isRow      bool
		idx        int
	}{
		{"middle-row-removal", []int{0, 2, 3, 4}, []int{0, 1, 3}, true, 2},
		{"last-row-removal", []int{0, 2, 3, 4}, []int{0, 1, 3}, true, 4},
		{"all-missing-row-removal", []int{0, 1, 2}, []int{0, 1, 3}, true, 1},
		{"all-missing-row-insertion", []int{0, 2}, []int{0, 1, 3}, true, 1},
		{"middle-col-removal", []int{0, 2, 3}, []int{0, 1, 3, 4}, false, 1},
		{"first-col-removal", []int{0, 2, 3}, []int{0, 1, 3, 4}, false, 0},
		{"last-col-removal", []int{0, 2, 3}, []int{0, 1, 3, 4}, false, 4},
		{"col-insertion", []int{0, 2, 3}, []int{0, 1, 3}, false, 2},
		{"row-into-rowless", nil, []int{0, 2}, true, 3},
		{"col-into-rowless", nil, []int{0, 2}, false, 3},
		{"row-into-colless", []int{0, 2}, nil, true, 3},
		{"col-into-colless", []int{0, 2}, nil, false, 3},
		{"last-member-row", []int{2}, []int{0, 1}, true, 2},
		{"last-member-col", []int{2, 3}, []int{1}, false, 1},
	} {
		c := build(tc.rows, tc.cols)
		before := exactBits(c)
		p.Load(c, tc.isRow, tc.idx)
		checkProbe(t, &p, toggled(c, tc.isRow, tc.idx), other, tc.name)
		if after := exactBits(c); after != before {
			t.Errorf("%s: probing changed the cluster", tc.name)
		}
	}
}

// TestProbeNeedsPack pins the precondition: probes scan the evaluation
// pack, so loading one on a pack-less cluster panics instead of
// reading stale blocks.
func TestProbeNeedsPack(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Load on a pack-less cluster did not panic")
		}
	}()
	m := probeMatrix(1, 4, 4, 0)
	var p Probe
	p.Load(FromSpec(m, []int{0}, []int{0}), true, 1)
}
