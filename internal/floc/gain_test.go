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

// bruteResidue is Definition 3.5 or, when squared is set, Cheng &
// Church's mean squared residue: the mean of |r_ij| (or r_ij²) over
// the specified entries, with r_ij = d_ij − d_iJ − d_Ij + d_IJ.
func bruteResidue(m *matrix.Matrix, rows, cols []int, squared bool) float64 {
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
			if squared {
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
// empty cluster, single row, single column, an all-missing row. Leg
// mean=0 checks Residue, leg mean=1 MeanSquaredResidue.
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
		for mean, squared := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/mean=%d", tc.name, mean), func(t *testing.T) {
				cl := cluster.FromSpec(m, tc.rows, tc.cols)
				got := cl.Residue()
				if squared {
					got = cl.MeanSquaredResidue()
				}
				want := bruteResidue(m, tc.rows, tc.cols, squared)
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
		t.Run(fmt.Sprintf("policy=%v", policy), func(t *testing.T) {
			cfg := Config{
				K: 2, GainPolicy: policy, MaxResidue: 5,
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
					res := bruteResidue(m, nr, nc, false)
					vol := bruteVolume(m, nr, nc)
					afterCost := e.cost(res, vol, len(nr), len(nc))
					beforeCost := e.cost(
						bruteResidue(m, spec.Rows, spec.Cols, false),
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
			var b cluster.Batch
			b.Load(e.clusters[tc.c], tc.isRow, tc.idx)
			got := e.violatesToggled(b.Probe(0), tc.c)
			if got != want {
				t.Fatalf("violatesToggled = %v, brute-force constraint predicate = %v", got, want)
			}
		})
	}
}

// TestIterateAllocations pins a full phase-2 iteration of the bench
// engine at zero heap allocations once warmIterate has grown its
// slices, the figure BenchmarkIterate records: without the warm-up
// the first iterations' growth, amortized over a small b.N, reads as
// allocations per op. The deltadebug build's invariant checks clone
// every cluster after each applied action, so it is skipped there.
func TestIterateAllocations(t *testing.T) {
	if debugInvariants {
		t.Skip("the deltadebug invariant checks allocate")
	}
	e := benchEngine(t, 1)
	best := warmIterate(e)
	if a := testing.AllocsPerRun(20, func() { best, _ = e.iterate(best) }); a != 0 {
		t.Errorf("iterate: %v allocations per call after warm-up, want 0", a)
	}
}

// TestDecideAllocations pins the exact decide phase at zero heap
// allocations once its scratch is warm, on the bench engine and at the
// synthetic-iterate workload's shape: one decideAll on one worker, and
// each batched probe call — Load, Drop, Append and Residues of sixteen
// row insertions, row removals and column insertions — on every
// cluster. benchdiff gates the same figure on BenchmarkDecideAll, but
// only to its tolerance.
func TestDecideAllocations(t *testing.T) {
	for _, leg := range []struct {
		name string
		e    *engine
	}{
		{"bench", benchEngine(t, 1)},
		{"synthetic-iterate", syntheticEngine(t)},
	} {
		t.Run(leg.name, func(t *testing.T) {
			e := leg.e
			if a := testing.AllocsPerRun(2, func() { e.decideAll() }); a != 0 {
				t.Errorf("decideAll: %v allocations per call, want 0", a)
			}
			var b cluster.Batch
			var out [cluster.Lanes]float64
			for c, cl := range e.clusters {
				for _, kind := range []struct {
					name          string
					isRow, member bool
				}{
					{"row insertions", true, false},
					{"row removals", true, true},
					{"column insertions", false, false},
				} {
					var idxs []int
					n, has := e.m.Cols(), cl.HasCol
					if kind.isRow {
						n, has = e.m.Rows(), cl.HasRow
					}
					for x := 0; x < n && len(idxs) < cluster.Lanes+1; x++ {
						if has(x) == kind.member {
							idxs = append(idxs, x)
						}
					}
					if len(idxs) < 2 {
						continue
					}
					a := testing.AllocsPerRun(2, func() {
						b.Load(cl, kind.isRow, idxs[:len(idxs)-1]...)
						b.Drop(0)
						b.Append(cl, kind.isRow, idxs[len(idxs)-1])
						b.Residues(out[:b.Len()])
					})
					if a != 0 {
						t.Errorf("cluster %d, %s: %v allocations per batch, want 0", c, kind.name, a)
					}
				}
			}
		})
	}
}
