package floc

import (
	"fmt"
	"math"
	"testing"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
)

// Brute-force twins of the engine's incremental quantities, computed
// straight from the paper's definitions with no shared code: bases by
// Definition 3.3, residues by Definitions 3.4/3.5, volume by
// Definition 3.2, occupancy by Definition 3.1. The gain tests compare
// the engine's cached arithmetic against these on every item×cluster
// pair of small matrices with missing values.

// bruteBase is d_IJ over the given membership, NaN when no entry of
// the submatrix is specified.
func bruteBase(m *matrix.Matrix, rows, cols []int) float64 {
	sum, cnt := 0.0, 0
	for _, i := range rows {
		for _, j := range cols {
			if m.IsSpecified(i, j) {
				sum += m.Get(i, j)
				cnt++
			}
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}

// bruteRowBase is d_iJ: row i's mean over the member columns.
func bruteRowBase(m *matrix.Matrix, i int, cols []int) float64 {
	sum, cnt := 0.0, 0
	for _, j := range cols {
		if m.IsSpecified(i, j) {
			sum += m.Get(i, j)
			cnt++
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}

// bruteColBase is d_Ij: column j's mean over the member rows.
func bruteColBase(m *matrix.Matrix, j int, rows []int) float64 {
	sum, cnt := 0.0, 0
	for _, i := range rows {
		if m.IsSpecified(i, j) {
			sum += m.Get(i, j)
			cnt++
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}

// bruteVolume counts the specified entries of the submatrix.
func bruteVolume(m *matrix.Matrix, rows, cols []int) int {
	n := 0
	for _, i := range rows {
		for _, j := range cols {
			if m.IsSpecified(i, j) {
				n++
			}
		}
	}
	return n
}

// bruteResidue is Definition 3.5 (arithmetic) or the squared-mean
// variant: the mean of |r_ij| (or r_ij²) over the specified entries,
// with r_ij = d_ij − d_iJ − d_Ij + d_IJ.
func bruteResidue(m *matrix.Matrix, rows, cols []int, mean cluster.ResidueMean) float64 {
	vol := bruteVolume(m, rows, cols)
	if vol == 0 {
		return 0
	}
	base := bruteBase(m, rows, cols)
	sum := 0.0
	for _, i := range rows {
		rowBase := bruteRowBase(m, i, cols)
		for _, j := range cols {
			if !m.IsSpecified(i, j) {
				continue
			}
			r := m.Get(i, j) - rowBase - bruteColBase(m, j, rows) + base
			if mean == cluster.SquaredMean {
				sum += r * r
			} else {
				sum += math.Abs(r)
			}
		}
	}
	return sum / float64(vol)
}

// toggled returns the membership after toggling idx in (rows, cols).
func toggled(rows, cols []int, isRow bool, idx int) (outRows, outCols []int) {
	flip := func(members []int) []int {
		out := []int{}
		found := false
		for _, x := range members {
			if x == idx {
				found = true
				continue
			}
			out = append(out, x)
		}
		if !found {
			out = append(out, idx)
		}
		return out
	}
	if isRow {
		return flip(rows), cols
	}
	return rows, flip(cols)
}

// gainTestMatrix is a small matrix with deliberate structure: a
// coherent 3×3 block, a noisy remainder, scattered missing entries
// and one all-missing row (index 4) — the α-occupancy edge case.
func gainTestMatrix(t *testing.T) *matrix.Matrix {
	t.Helper()
	nan := math.NaN()
	m, err := matrix.NewFromRows([][]float64{
		{1, 2, 3, 8.5, 0.2},
		{2, 3, 4, nan, 7.7},
		{3, 4, 5, 1.1, nan},
		{9, 0.5, nan, 4.2, 3.3},
		{nan, nan, nan, nan, nan},
		{0.7, 6.1, 2.2, nan, 5.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBruteResidueAgreesWithCluster anchors the twins to each other:
// the incremental cluster aggregates and the from-scratch Definition
// 3.5 computation must agree on every membership case before either
// is trusted as a gain oracle. Covers the α-occupancy edge shapes:
// empty cluster, single row, single column, an all-missing row.
func TestBruteResidueAgreesWithCluster(t *testing.T) {
	m := gainTestMatrix(t)
	cases := []struct {
		name       string
		rows, cols []int
	}{
		{"empty", nil, nil},
		{"single-row", []int{1}, []int{0, 1, 2}},
		{"single-col", []int{0, 1, 2}, []int{3}},
		{"coherent-block", []int{0, 1, 2}, []int{0, 1, 2}},
		{"with-missing", []int{1, 2, 3}, []int{2, 3, 4}},
		{"all-missing-row", []int{0, 4}, []int{0, 1, 2}},
		{"full", []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4}},
	}
	for _, tc := range cases {
		for _, mean := range []cluster.ResidueMean{cluster.ArithmeticMean, cluster.SquaredMean} {
			t.Run(fmt.Sprintf("%s/mean=%d", tc.name, mean), func(t *testing.T) {
				cl := cluster.FromSpec(m, tc.rows, tc.cols)
				got := cl.ResidueWith(mean)
				want := bruteResidue(m, tc.rows, tc.cols, mean)
				if !closeRel(got, want, 1e-12) {
					t.Fatalf("cluster residue %v, brute force from Definition 3.5 gives %v", got, want)
				}
				if cl.Volume() != bruteVolume(m, tc.rows, tc.cols) {
					t.Fatalf("cluster volume %d, brute force %d", cl.Volume(), bruteVolume(m, tc.rows, tc.cols))
				}
			})
		}
	}
}

// closeRel reports |a−b| ≤ tol·(1+max(|a|,|b|)), NaN equal to NaN.
func closeRel(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	scale := math.Abs(a)
	if s := math.Abs(b); s > scale {
		scale = s
	}
	return math.Abs(a-b) <= tol*(1+scale)
}

// TestEvalActionExactGainBruteForce sweeps every (item, cluster) pair
// of an unconstrained engine and checks the exact gain against a
// from-scratch recomputation: gain = cost(before) − cost(after) with
// both costs priced from brute-force residues and volumes. It also
// asserts that each evaluation leaves every cluster bit-identical —
// the purity property the parallel decide phase stands on.
func TestEvalActionExactGainBruteForce(t *testing.T) {
	m := gainTestMatrix(t)
	for _, policy := range []GainPolicy{VolumeGain, ResidueGain} {
		for _, mean := range []cluster.ResidueMean{cluster.ArithmeticMean, cluster.SquaredMean} {
			t.Run(fmt.Sprintf("policy=%v/mean=%d", policy, mean), func(t *testing.T) {
				cfg := Config{
					K: 2, GainPolicy: policy, MaxResidue: 5, ResidueMean: mean,
					Constraints: Constraints{MaxOverlap: -1}, Workers: 1,
				}
				specs := []cluster.Spec{
					{Rows: []int{0, 1, 2}, Cols: []int{0, 1, 2}},
					{Rows: []int{1, 3, 5}, Cols: []int{1, 3, 4}},
				}
				e := newBareEngine(t, m, cfg, specs)
				before := make([]string, len(e.clusters))
				for c, cl := range e.clusters {
					before[c] = clusterBits(cl)
				}
				for c, spec := range specs {
					for t2 := 0; t2 < m.Rows()+m.Cols(); t2++ {
						isRow, idx := e.itemOf(t2)
						got := e.evalAction(isRow, idx, c)

						nr, nc := toggled(spec.Rows, spec.Cols, isRow, idx)
						res := bruteResidue(m, nr, nc, mean)
						vol := bruteVolume(m, nr, nc)
						afterCost := e.cost(res, vol, len(nr), len(nc))
						beforeCost := e.cost(
							bruteResidue(m, spec.Rows, spec.Cols, mean),
							bruteVolume(m, spec.Rows, spec.Cols),
							len(spec.Rows), len(spec.Cols))
						want := beforeCost - afterCost
						if !closeRel(got, want, 1e-9) {
							t.Errorf("evalAction(isRow=%v, idx=%d, c=%d) = %v, brute force %v",
								isRow, idx, c, got, want)
						}
						for cc, cl := range e.clusters {
							if gotBits := clusterBits(cl); gotBits != before[cc] {
								t.Fatalf("evalAction(isRow=%v, idx=%d, c=%d) disturbed cluster %d\nbefore %s\nafter  %s",
									isRow, idx, c, cc, before[cc], gotBits)
							}
						}
					}
				}
			})
		}
	}
}

// TestApproximateGainBruteForce checks the O(n+m) estimator against
// an independent evaluation of its own documented formula, with every
// base computed from scratch: the item's residue contribution under
// the cluster's current bases is added to (insertion) or subtracted
// from (removal) the residue mass, and the cost delta is priced on
// the resulting shape.
func TestApproximateGainBruteForce(t *testing.T) {
	m := gainTestMatrix(t)
	cfg := Config{
		K: 2, GainPolicy: VolumeGain, MaxResidue: 5,
		Constraints: Constraints{MaxOverlap: -1}, ApproximateGain: true, Workers: 1,
	}
	specs := []cluster.Spec{
		{Rows: []int{0, 1, 2}, Cols: []int{0, 1, 2}},
		{Rows: []int{1, 3, 5}, Cols: []int{1, 3, 4}},
	}
	e := newBareEngine(t, m, cfg, specs)

	bruteApprox := func(spec cluster.Spec, isRow bool, idx int, c int) float64 {
		rows, cols := spec.Rows, spec.Cols
		isMember := false
		members := rows
		if !isRow {
			members = cols
		}
		for _, x := range members {
			if x == idx {
				isMember = true
			}
		}
		base := bruteBase(m, rows, cols)
		if math.IsNaN(base) {
			base = 0
		}
		// The item's own base and residue contribution under the
		// cluster's current cross-axis bases.
		var contribution float64
		var cnt int
		var itemBase float64
		if isRow {
			itemBase = bruteRowBase(m, idx, cols)
		} else {
			itemBase = bruteColBase(m, idx, rows)
		}
		if math.IsNaN(itemBase) {
			return 0 // no specified entries → estimator returns 0
		}
		cross := cols
		if !isRow {
			cross = rows
		}
		for _, x := range cross {
			var i, j int
			if isRow {
				i, j = idx, x
			} else {
				i, j = x, idx
			}
			if !m.IsSpecified(i, j) {
				continue
			}
			cnt++
			var crossBase float64
			if isRow {
				crossBase = bruteColBase(m, j, rows)
			} else {
				crossBase = bruteRowBase(m, i, cols)
			}
			if math.IsNaN(crossBase) {
				crossBase = base
			}
			contribution += math.Abs(m.Get(i, j) - itemBase - crossBase + base)
		}
		vol := bruteVolume(m, rows, cols)
		res := bruteResidue(m, rows, cols, cluster.ArithmeticMean)
		var newRes float64
		var newVol int
		if isMember {
			newVol = vol - cnt
			if newVol <= 0 {
				newRes = 0
			} else {
				mass := res*float64(vol) - contribution
				if mass < 0 {
					mass = 0
				}
				newRes = mass / float64(newVol)
			}
		} else {
			newVol = vol + cnt
			newRes = (res*float64(vol) + contribution) / float64(newVol)
		}
		nRows, nCols := len(rows), len(cols)
		delta := 1
		if isMember {
			delta = -1
		}
		if isRow {
			nRows += delta
		} else {
			nCols += delta
		}
		beforeCost := e.cost(res, vol, len(rows), len(cols))
		return beforeCost - e.cost(newRes, newVol, nRows, nCols)
	}

	cases := []struct {
		name  string
		isRow bool
		idx   int
		c     int
	}{
		{"row-insertion", true, 3, 0},
		{"row-removal", true, 1, 0},
		{"col-insertion", false, 4, 0},
		{"col-removal", false, 2, 0},
		{"all-missing-row-insertion", true, 4, 0},
		{"row-insertion-into-sparse", true, 2, 1},
		{"col-removal-sparse", false, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := specs[tc.c]
			isMember := false
			members := spec.Rows
			if !tc.isRow {
				members = spec.Cols
			}
			for _, x := range members {
				if x == tc.idx {
					isMember = true
				}
			}
			got := e.approximateGain(tc.c, tc.isRow, tc.idx, isMember)
			want := bruteApprox(spec, tc.isRow, tc.idx, tc.c)
			if !closeRel(got, want, 1e-9) {
				t.Fatalf("approximateGain = %v, brute-force evaluation of its formula = %v", got, want)
			}
		})
	}
}

// TestViolatesToggledBruteForce drives the toggled-state constraint
// check against first-principles predicates: the volume ceiling by
// counting, occupancy by Definition 3.1 (each member row needs
// specified values on ≥ α·|J| member columns, each member column on
// ≥ α·|I| member rows), and the overlap budget by |I∩I'|·|J∩J'|
// against min(|I|·|J|, |I'|·|J'|). Edge cases: toggling into an
// empty cluster, single-row and single-column clusters, and the
// all-missing row.
func TestViolatesToggledBruteForce(t *testing.T) {
	m := gainTestMatrix(t)
	type tcase struct {
		name  string
		specs []cluster.Spec
		cons  Constraints
		isRow bool
		idx   int
		c     int
	}
	cases := []tcase{
		{
			name:  "occupancy/all-missing-row-insertion",
			specs: []cluster.Spec{{Rows: []int{0, 1}, Cols: []int{0, 1, 2}}, {}},
			cons:  Constraints{Occupancy: 0.5, MaxOverlap: -1},
			isRow: true, idx: 4, c: 0,
		},
		{
			name:  "occupancy/partial-row-insertion-passes",
			specs: []cluster.Spec{{Rows: []int{0, 1}, Cols: []int{0, 1, 2}}, {}},
			cons:  Constraints{Occupancy: 0.5, MaxOverlap: -1},
			isRow: true, idx: 3, c: 0, // row 3 has 2 of 3 specified ≥ 0.5·3
		},
		{
			name:  "occupancy/strict-alpha-blocks-partial-row",
			specs: []cluster.Spec{{Rows: []int{0, 1}, Cols: []int{0, 1, 2}}, {}},
			cons:  Constraints{Occupancy: 1.0, MaxOverlap: -1},
			isRow: true, idx: 3, c: 0, // row 3 misses column 2 → α = 1 blocks
		},
		{
			name:  "occupancy/empty-cluster-insertion-trivially-satisfied",
			specs: []cluster.Spec{{}, {}},
			cons:  Constraints{Occupancy: 1.0, MaxOverlap: -1},
			isRow: true, idx: 0, c: 0, // toggled cluster has rows but no cols: occupancy vacuous
		},
		{
			name:  "occupancy/removal-can-break-columns",
			specs: []cluster.Spec{{Rows: []int{1, 2}, Cols: []int{3, 4}}, {}},
			cons:  Constraints{Occupancy: 0.5, MaxOverlap: -1},
			isRow: true, idx: 1, c: 0, // leaves single row 2 with col 4 missing
		},
		{
			name:  "occupancy/single-column-cluster",
			specs: []cluster.Spec{{Rows: []int{0, 1, 2}, Cols: []int{3}}, {}},
			cons:  Constraints{Occupancy: 1.0, MaxOverlap: -1},
			isRow: false, idx: 4, c: 0, // second column has a missing entry in row 2
		},
		{
			name:  "volume/ceiling-blocks-insertion",
			specs: []cluster.Spec{{Rows: []int{0, 1, 2}, Cols: []int{0, 1, 2}}, {}},
			cons:  Constraints{MaxVolume: 10, MaxOverlap: -1},
			isRow: true, idx: 5, c: 0, // 9 + 3 specified > 10
		},
		{
			name:  "volume/ceiling-ignores-removal",
			specs: []cluster.Spec{{Rows: []int{0, 1, 2, 5}, Cols: []int{0, 1, 2}}, {}},
			cons:  Constraints{MaxVolume: 1, MaxOverlap: -1},
			isRow: true, idx: 5, c: 0, // removal: ceiling must not fire even though 9 > 1
		},
		{
			name: "overlap/budget-blocks-insertion",
			specs: []cluster.Spec{
				{Rows: []int{0, 1}, Cols: []int{0, 1, 2}},
				{Rows: []int{1, 2}, Cols: []int{0, 1, 2}},
			},
			cons:  Constraints{MaxOverlap: 0.4},
			isRow: true, idx: 2, c: 0, // shared rows {1,2} × 3 shared cols = 6 > 0.4·min(9,6)
		},
		{
			name: "overlap/budget-within-limit",
			specs: []cluster.Spec{
				{Rows: []int{0, 1}, Cols: []int{0, 1, 2}},
				{Rows: []int{2, 3}, Cols: []int{3, 4}},
			},
			cons:  Constraints{MaxOverlap: 0.4},
			isRow: true, idx: 5, c: 0, // disjoint clusters: overlap 0
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{K: len(tc.specs), GainPolicy: VolumeGain, MaxResidue: 5,
				Constraints: tc.cons, Workers: 1}
			e := newBareEngine(t, m, cfg, tc.specs)

			// Brute-force predicate on the toggled membership.
			spec := tc.specs[tc.c]
			wasMember := false
			members := spec.Rows
			if !tc.isRow {
				members = spec.Cols
			}
			for _, x := range members {
				if x == tc.idx {
					wasMember = true
				}
			}
			nr, nc := toggled(spec.Rows, spec.Cols, tc.isRow, tc.idx)
			want := false
			if !wasMember && tc.cons.MaxVolume > 0 && bruteVolume(m, nr, nc) > tc.cons.MaxVolume {
				want = true
			}
			if a := tc.cons.Occupancy; a > 0 && len(nr) > 0 && len(nc) > 0 {
				for _, i := range nr {
					cnt := 0
					for _, j := range nc {
						if m.IsSpecified(i, j) {
							cnt++
						}
					}
					if float64(cnt) < a*float64(len(nc)) {
						want = true
					}
				}
				for _, j := range nc {
					cnt := 0
					for _, i := range nr {
						if m.IsSpecified(i, j) {
							cnt++
						}
					}
					if float64(cnt) < a*float64(len(nr)) {
						want = true
					}
				}
			}
			if tc.cons.MaxOverlap >= 0 && !wasMember {
				cells := len(nr) * len(nc)
				for o, other := range tc.specs {
					if o == tc.c {
						continue
					}
					oCells := len(other.Rows) * len(other.Cols)
					minCells := cells
					if oCells < minCells {
						minCells = oCells
					}
					if minCells == 0 {
						continue
					}
					inter := func(a, b []int) int {
						n := 0
						for _, x := range a {
							for _, y := range b {
								if x == y {
									n++
								}
							}
						}
						return n
					}
					if float64(inter(nr, other.Rows)*inter(nc, other.Cols)) > tc.cons.MaxOverlap*float64(minCells) {
						want = true
					}
				}
			}

			// Drive the engine's check on a probe of the toggle, the way
			// evalAction invokes it.
			var p cluster.Probe
			p.Load(e.clusters[tc.c], tc.isRow, tc.idx)
			got := e.violatesToggled(&p, tc.c)
			if got != want {
				t.Fatalf("violatesToggled = %v, brute-force constraint predicate = %v", got, want)
			}
		})
	}
}
