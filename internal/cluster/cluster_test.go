package cluster

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"deltacluster/internal/matrix"
	"deltacluster/internal/paperdata"
	"deltacluster/internal/stats"
)

// bruteResidue recomputes Definition 3.5 directly from the matrix,
// independent of the incremental aggregates, as a test oracle.
func bruteResidue(m *matrix.Matrix, rows, cols []int) float64 {
	rowSum := map[int]float64{}
	rowCnt := map[int]int{}
	colSum := map[int]float64{}
	colCnt := map[int]int{}
	total, volume := 0.0, 0
	for _, i := range rows {
		for _, j := range cols {
			v := m.Get(i, j)
			if math.IsNaN(v) {
				continue
			}
			rowSum[i] += v
			rowCnt[i]++
			colSum[j] += v
			colCnt[j]++
			total += v
			volume++
		}
	}
	if volume == 0 {
		return 0
	}
	base := total / float64(volume)
	sum := 0.0
	for _, i := range rows {
		for _, j := range cols {
			v := m.Get(i, j)
			if math.IsNaN(v) {
				continue
			}
			sum += math.Abs(v - rowSum[i]/float64(rowCnt[i]) - colSum[j]/float64(colCnt[j]) + base)
		}
	}
	return sum / float64(volume)
}

func TestEmptyCluster(t *testing.T) {
	m, _ := matrix.NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := New(m)
	if c.NumRows() != 0 || c.NumCols() != 0 || c.Volume() != 0 {
		t.Fatal("fresh cluster not empty")
	}
	if c.Residue() != 0 {
		t.Errorf("empty residue = %v, want 0", c.Residue())
	}
	if !math.IsNaN(c.Base()) {
		t.Errorf("empty base = %v, want NaN", c.Base())
	}
	if c.Diameter() != 0 {
		t.Errorf("empty diameter = %v, want 0", c.Diameter())
	}
	if !c.SatisfiesOccupancy(1.0) {
		t.Error("empty cluster should satisfy any occupancy")
	}
}

func TestFromSpecDeduplicates(t *testing.T) {
	m, _ := matrix.NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := FromSpec(m, []int{0, 0, 1}, []int{1, 1})
	if c.NumRows() != 2 || c.NumCols() != 1 {
		t.Fatalf("dedup failed: %d rows, %d cols", c.NumRows(), c.NumCols())
	}
}

// Figure 4(b): the paper's worked perfect δ-cluster. All the base
// values printed in Section 3 must be matched exactly, and the residue
// must be 0.
func TestFigure4PerfectCluster(t *testing.T) {
	m := paperdata.Figure4Matrix()
	c := FromSpec(m, paperdata.Figure4ClusterRows, paperdata.Figure4ClusterCols)

	if got := c.Volume(); got != 9 {
		t.Fatalf("volume = %d, want 9", got)
	}
	wantRowBase := map[int]float64{1: 273, 2: 190, 7: 194} // VPS8, EFB1, CYS3
	for i, want := range wantRowBase {
		if got := c.RowBase(i); got != want {
			t.Errorf("row base of %s = %v, want %v", paperdata.YeastGenes[i], got, want)
		}
	}
	wantColBase := map[int]float64{0: 347, 2: 66, 4: 244} // CH1I, CH1D, CH2B
	for j, want := range wantColBase {
		if got := c.ColBase(j); got != want {
			t.Errorf("col base of %s = %v, want %v", paperdata.YeastConditions[j], got, want)
		}
	}
	if got := c.Base(); got != 219 {
		t.Errorf("cluster base = %v, want 219", got)
	}
	if got := c.Residue(); got != 0 {
		t.Errorf("residue = %v, want 0", got)
	}
	if got := c.MeanSquaredResidue(); got != 0 {
		t.Errorf("squared residue = %v, want 0", got)
	}
	// The paper's spot check: d(VPS8, CH1I) = 273 − 347·(sign conv) …
	// expected value d_iJ + d_Ij − d_IJ = 273 + 347 − 219 = 401.
	if got := c.EntryResidue(1, 0); got != 0 {
		t.Errorf("entry residue (VPS8, CH1I) = %v, want 0", got)
	}
}

// Figure 3: with α = 0.6 the sparse submatrix (a) is not a δ-cluster
// and (b) is.
func TestFigure3Occupancy(t *testing.T) {
	all := []int{0, 1, 2}
	cols := []int{0, 1, 2, 3}
	a := FromSpec(paperdata.Figure3a(), all, cols)
	if a.SatisfiesOccupancy(0.6) {
		t.Error("Figure 3(a) accepted at α=0.6")
	}
	b := FromSpec(paperdata.Figure3b(), all, cols)
	if !b.SatisfiesOccupancy(0.6) {
		t.Error("Figure 3(b) rejected at α=0.6")
	}
	if b.Volume() != 9 {
		t.Errorf("Figure 3(b) volume = %d, want 9", b.Volume())
	}
}

// The Figure 1 vectors form a perfect δ-cluster despite large mutual
// distances.
func TestFigure1ZeroResidue(t *testing.T) {
	m := paperdata.Figure1Vectors()
	c := FromSpec(m, []int{0, 1, 2}, []int{0, 1, 2, 3, 4})
	if got := c.Residue(); math.Abs(got) > 1e-12 {
		t.Errorf("residue = %v, want 0", got)
	}
	if d := c.Diameter(); d < 100 {
		t.Errorf("diameter = %v; vectors should be far apart", d)
	}
}

// Figure 6 worked example: the initial residues and the gain structure
// are checked against the brute-force oracle rather than the paper's
// OCR-garbled fractions.
func TestFigure6Residues(t *testing.T) {
	m := paperdata.Figure6Matrix()
	c1 := FromSpec(m, paperdata.Figure6Cluster1Rows, paperdata.Figure6Cluster1Cols)
	c2 := FromSpec(m, paperdata.Figure6Cluster2Rows, paperdata.Figure6Cluster2Cols)
	for name, c := range map[string]*Cluster{"cluster1": c1, "cluster2": c2} {
		want := bruteResidue(m, c.Rows(), c.Cols())
		if got := c.Residue(); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s residue = %v, oracle %v", name, got, want)
		}
	}
	// Inserting column 3 (index 2) into cluster 1 must change the
	// residue exactly as the oracle predicts.
	before := c1.Residue()
	c1.AddCol(2)
	after := c1.Residue()
	want := bruteResidue(m, []int{0, 1}, []int{0, 1, 2})
	if math.Abs(after-want) > 1e-12 {
		t.Errorf("after insert residue = %v, oracle %v", after, want)
	}
	if after <= before {
		t.Logf("note: inserting col 3 into cluster 1 improved residue (%v -> %v)", before, after)
	}
}

func TestAddRemoveInverse(t *testing.T) {
	m := paperdata.Figure4Matrix()
	c := FromSpec(m, []int{0, 1, 2}, []int{0, 1, 2})
	want := c.Residue()
	c.AddRow(5)
	c.RemoveRow(5)
	if got := c.Residue(); math.Abs(got-want) > 1e-9 {
		t.Errorf("add/remove row changed residue: %v -> %v", want, got)
	}
	c.AddCol(4)
	c.RemoveCol(4)
	if got := c.Residue(); math.Abs(got-want) > 1e-9 {
		t.Errorf("add/remove col changed residue: %v -> %v", want, got)
	}
}

func TestToggle(t *testing.T) {
	m := paperdata.Figure4Matrix()
	c := New(m)
	c.ToggleCol(1)
	c.ToggleRow(3)
	if !c.HasRow(3) || !c.HasCol(1) {
		t.Fatal("toggle did not add")
	}
	c.ToggleRow(3)
	if c.HasRow(3) {
		t.Fatal("toggle did not remove")
	}
}

func TestMembershipPanics(t *testing.T) {
	m, _ := matrix.NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := New(m)
	c.AddRow(0)
	mustPanic(t, "double AddRow", func() { c.AddRow(0) })
	mustPanic(t, "RemoveRow non-member", func() { c.RemoveRow(1) })
	mustPanic(t, "RemoveCol non-member", func() { c.RemoveCol(0) })
	mustPanic(t, "RowBase non-member", func() { c.RowBase(1) })
	mustPanic(t, "ColBase non-member", func() { c.ColBase(0) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestVolumeWithMissing(t *testing.T) {
	nan := math.NaN()
	m, _ := matrix.NewFromRows([][]float64{
		{1, nan, 3},
		{4, 5, nan},
	})
	c := FromSpec(m, []int{0, 1}, []int{0, 1, 2})
	if got := c.Volume(); got != 4 {
		t.Errorf("volume = %d, want 4", got)
	}
}

func TestRowBaseSkipsMissing(t *testing.T) {
	nan := math.NaN()
	m, _ := matrix.NewFromRows([][]float64{{2, nan, 4}})
	c := FromSpec(m, []int{0}, []int{0, 1, 2})
	if got := c.RowBase(0); got != 3 {
		t.Errorf("row base = %v, want 3 (mean of specified)", got)
	}
}

func TestDiameter(t *testing.T) {
	m, _ := matrix.NewFromRows([][]float64{
		{0, 0},
		{3, 4},
	})
	c := FromSpec(m, []int{0, 1}, []int{0, 1})
	if got := c.Diameter(); math.Abs(got-5) > 1e-12 {
		t.Errorf("diameter = %v, want 5", got)
	}
}

func TestOverlap(t *testing.T) {
	m := paperdata.Figure4Matrix()
	a := FromSpec(m, []int{0, 1, 2}, []int{0, 1})
	b := FromSpec(m, []int{1, 2, 3}, []int{1, 2})
	if got := a.Overlap(b); got != 2 { // rows {1,2} × cols {1}
		t.Errorf("overlap = %d, want 2", got)
	}
	if got := b.Overlap(a); got != 2 {
		t.Errorf("overlap not symmetric: %d", got)
	}
	empty := New(m)
	if got := a.Overlap(empty); got != 0 {
		t.Errorf("overlap with empty = %d, want 0", got)
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	m := paperdata.Figure4Matrix()
	c := FromSpec(m, []int{0, 1}, []int{0, 1})
	cl := c.Clone()
	cl.AddRow(5)
	if c.HasRow(5) {
		t.Error("Clone shares state")
	}
	chk := New(m)
	chk.CopyFrom(c)
	if chk.Residue() != c.Residue() || chk.Volume() != c.Volume() {
		t.Error("CopyFrom mismatch")
	}
	chk.AddCol(3)
	if c.HasCol(3) {
		t.Error("CopyFrom shares state")
	}
}

func TestSpecSorted(t *testing.T) {
	m := paperdata.Figure4Matrix()
	c := New(m)
	c.AddRow(7)
	c.AddRow(1)
	c.AddCol(4)
	c.AddCol(0)
	s := c.Spec()
	if s.Rows[0] != 1 || s.Rows[1] != 7 || s.Cols[0] != 0 || s.Cols[1] != 4 {
		t.Errorf("spec not sorted: %+v", s)
	}
}

func TestStats(t *testing.T) {
	m := paperdata.Figure4Matrix()
	c := FromSpec(m, paperdata.Figure4ClusterRows, paperdata.Figure4ClusterCols)
	st := c.Stats()
	if st.NumRows != 3 || st.NumCols != 3 || st.Volume != 9 || st.Residue != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestResidueOf(t *testing.T) {
	m := paperdata.Figure4Matrix()
	got := ResidueOf(m, paperdata.Figure4ClusterRows, paperdata.Figure4ClusterCols)
	if got != 0 {
		t.Errorf("ResidueOf = %v, want 0", got)
	}
}

// Property: after an arbitrary sequence of add/remove operations the
// incremental aggregates agree with a cluster rebuilt from the final
// membership, for both residue means.
func TestIncrementalMatchesRebuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		rows := g.UniformInt(2, 8)
		cols := g.UniformInt(2, 8)
		m := matrix.New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if g.Bool(0.85) {
					m.Set(i, j, g.Uniform(-50, 50))
				}
			}
		}
		c := New(m)
		for step := 0; step < 60; step++ {
			if g.Bool(0.5) {
				c.ToggleRow(g.Intn(rows))
			} else {
				c.ToggleCol(g.Intn(cols))
			}
		}
		rebuilt := FromSpec(m, c.Rows(), c.Cols())
		if c.Volume() != rebuilt.Volume() {
			return false
		}
		tol := 1e-7
		if math.Abs(c.Residue()-rebuilt.Residue()) > tol {
			return false
		}
		if math.Abs(c.MeanSquaredResidue()-rebuilt.MeanSquaredResidue()) > tol {
			return false
		}
		oracle := bruteResidue(m, c.Rows(), c.Cols())
		return math.Abs(c.Residue()-oracle) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the residue is invariant under shifting any single row or
// column of the matrix — the defining property of the δ-cluster model
// (the base absorbs per-object/per-attribute bias). It holds for every
// kernel that computes a residue: ResidueOf over the whole matrix, and
// on a sub-cluster the packed Residue, the batched row insertion, row
// removal and column insertion probes, the one-lane column removal
// probe and MeanSquaredResidue, whether the shifted row or column is a
// member or a candidate.
//
// The invariance is exact only where every entry is specified: the
// bases average over the specified entries alone, so with a missing
// entry a shift moves a row base and the column bases by fractions
// that no longer cancel. The matrices here are complete for that
// reason. The offset comes from the seed's generator: testing/quick
// draws float64 arguments across the whole float range, so an offset
// argument would almost never fall in a range the tolerance covers.
func TestResidueShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		offset := g.Uniform(-1, 1) * math.Pow(10, float64(g.Intn(7)-1))
		rows := g.UniformInt(2, 24)
		cols := g.UniformInt(2, 24)
		m := matrix.New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, g.Uniform(-20, 20))
			}
		}
		allR := make([]int, rows)
		for i := range allR {
			allR[i] = i
		}
		allC := make([]int, cols)
		for j := range allC {
			allC[j] = j
		}
		var subR, subC []int
		for i := range allR {
			if g.Bool(0.6) {
				subR = append(subR, i)
			}
		}
		for j := range allC {
			if g.Bool(0.6) {
				subC = append(subC, j)
			}
		}
		tol := 1e-7 * (1 + math.Abs(offset))
		before := ResidueOf(m, allR, allC)
		probesBefore := shiftProbeResidues(m, subR, subC)
		m2 := m.Clone()
		m2.ShiftRow(g.Intn(rows), offset)
		m3 := m.Clone()
		m3.ShiftCol(g.Intn(cols), offset)
		for _, shifted := range []*matrix.Matrix{m2, m3} {
			if math.Abs(before-ResidueOf(shifted, allR, allC)) >= tol {
				return false
			}
			for k, r := range shiftProbeResidues(shifted, subR, subC) {
				if math.Abs(probesBefore[k]-r) >= tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// shiftProbeResidues lists probeResidues of the packed cluster
// subR×subC on the kernels the build serves, then its mean squared
// residue.
func shiftProbeResidues(m *matrix.Matrix, subR, subC []int) []float64 {
	cl := FromSpec(m, subR, subC)
	cl.EnablePack()
	return append(probeResidues(cl, useAVX2), cl.MeanSquaredResidue())
}

// probeResidues lists the residue of the packed cluster cl and the
// toggled residue of every candidate action on it, each kind's
// candidates in matrix index order: each non-member row inserted, each
// member row removed and each non-member column inserted, Lanes at a
// time, and each member column removed in a one-lane batch, as the
// decide phase loads them. The batches are scored on the AVX2 kernels
// when avx2 is set and on the portable ones otherwise.
func probeResidues(cl *Cluster, avx2 bool) []float64 {
	var b Batch
	out := []float64{cl.Residue()}
	res := make([]float64, Lanes)
	m := cl.Matrix()
	kinds := []struct {
		isRow, ins bool
		width      int
	}{{true, true, Lanes}, {true, false, Lanes}, {false, true, Lanes}, {false, false, 1}}
	for _, kind := range kinds {
		n, has := m.Cols(), cl.HasCol
		if kind.isRow {
			n, has = m.Rows(), cl.HasRow
		}
		var q []int
		for x := 0; x < n; x++ {
			if has(x) != kind.ins {
				q = append(q, x)
			}
		}
		for len(q) > 0 {
			k := min(len(q), kind.width)
			b.Load(cl, kind.isRow, q[:k]...)
			b.residues(res[:k], avx2)
			out = append(out, res[:k]...)
			q = q[k:]
		}
	}
	return out
}

// Property: the residue is invariant, up to rounding, under
// permutations of the member rows and columns — Definition 3.5
// averages over a set. The same member set is built in two seeded
// insertion orders, rows and columns interleaved, so the two clusters
// differ in member order, pack layout and the order every aggregate
// and residue term accumulates in. Residue, gathered and packed, and
// every probe kind (probeResidues) must then agree within a relative
// tolerance, on the portable kernels and on the AVX2 ones where the
// build has them. Unlike shift invariance, this holds with missing
// entries too, so most matrices here have some.
func TestResiduePermutationInvarianceProperty(t *testing.T) {
	const minCompared = 1500
	compared := 0
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= 1e-9*(1+math.Max(math.Abs(x), math.Abs(y)))
	}
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		rows, cols := g.UniformInt(2, 24), g.UniformInt(2, 24)
		missing := []float64{0, 0.1, 0.4}[g.Intn(3)]
		m := matrix.New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if !g.Bool(missing) {
					m.Set(i, j, g.Uniform(-20, 20))
				}
			}
		}
		var items [][2]int // (0, row) or (1, column)
		for i := 0; i < rows; i++ {
			if g.Bool(0.6) {
				items = append(items, [2]int{0, i})
			}
		}
		for j := 0; j < cols; j++ {
			if g.Bool(0.6) {
				items = append(items, [2]int{1, j})
			}
		}
		a, b := permutedCluster(m, items, g), permutedCluster(m, items, g)
		if !near(a.Residue(), b.Residue()) {
			return false
		}
		compared++
		a.EnablePack()
		b.EnablePack()
		for _, avx2 := range []bool{false, useAVX2} {
			ra, rb := probeResidues(a, avx2), probeResidues(b, avx2)
			if len(ra) != len(rb) {
				return false
			}
			for k := range ra {
				if !near(ra[k], rb[k]) {
					return false
				}
			}
			compared += len(ra)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if compared < minCompared {
		t.Fatalf("compared %d residues, want at least %d", compared, minCompared)
	}
	t.Logf("AVX2 kernels checked: %v; %d residues compared", useAVX2, compared)
}

// permutedCluster builds the cluster of items over m, adding them in a
// shuffled order.
func permutedCluster(m *matrix.Matrix, items [][2]int, g *stats.RNG) *Cluster {
	c := New(m)
	for _, k := range g.Perm(len(items)) {
		if it := items[k]; it[0] == 0 {
			c.AddRow(it[1])
		} else {
			c.AddCol(it[1])
		}
	}
	return c
}

// Property: SatisfiesOccupancy(α) is monotone in the missing mask and
// in α. Definition 3.1 bounds each member's count of specified entries
// from below, so blanking more entries of the member submatrix can
// turn true into false, never false into true, and for a fixed mask
// raising α can only do the same. Each case blanks member entries one
// at a time, cumulatively, and checks a sorted set of thresholds at
// every step: 0, 1, a few drawn uniformly, and every ratio k/|J| and
// k/|I|, where a count meets α·n exactly. Both kinds of true-to-false
// flip must be seen often enough for the property not to be vacuous.
func TestOccupancyMonotoneProperty(t *testing.T) {
	const minFlips = 100
	maskFlips, alphaFlips := 0, 0
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		rows, cols := g.UniformInt(1, 10), g.UniformInt(1, 10)
		m := matrix.New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if !g.Bool(0.1) {
					m.Set(i, j, g.Uniform(-5, 5))
				}
			}
		}
		subR := g.SampleWithoutReplacement(rows, g.UniformInt(1, rows))
		subC := g.SampleWithoutReplacement(cols, g.UniformInt(1, cols))
		alphas := []float64{0, 1}
		for k := 0; k < 4; k++ {
			alphas = append(alphas, g.Float64())
		}
		for k := 1; k < len(subC); k++ {
			alphas = append(alphas, float64(k)/float64(len(subC)))
		}
		for k := 1; k < len(subR); k++ {
			alphas = append(alphas, float64(k)/float64(len(subR)))
		}
		sort.Float64s(alphas)
		verdicts := func() []bool {
			c := FromSpec(m, subR, subC)
			out := make([]bool, len(alphas))
			for k, alpha := range alphas {
				out[k] = c.SatisfiesOccupancy(alpha)
			}
			return out
		}
		prev := verdicts()
		for step := 0; ; step++ {
			for k := 1; k < len(prev); k++ {
				if prev[k] && !prev[k-1] {
					return false // α rose and the verdict went false → true
				}
				if prev[k-1] && !prev[k] {
					alphaFlips++
				}
			}
			var specified [][2]int
			for _, i := range subR {
				for _, j := range subC {
					if m.IsSpecified(i, j) {
						specified = append(specified, [2]int{i, j})
					}
				}
			}
			if len(specified) == 0 {
				return true
			}
			e := specified[g.Intn(len(specified))]
			m.SetMissing(e[0], e[1])
			next := verdicts()
			for k := range next {
				if next[k] && !prev[k] {
					return false // a blanked entry turned false → true
				}
				if prev[k] && !next[k] {
					maskFlips++
				}
			}
			prev = next
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if maskFlips < minFlips || alphaFlips < minFlips {
		t.Fatalf("saw %d mask and %d threshold flips, want at least %d of each", maskFlips, alphaFlips, minFlips)
	}
	t.Logf("%d mask and %d threshold flips", maskFlips, alphaFlips)
}

// Property: residue is non-negative and a perfect shifted cluster has
// residue ~0 even with missing entries.
func TestPerfectShiftedClusterProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		rows := g.UniformInt(2, 10)
		cols := g.UniformInt(2, 10)
		m := matrix.New(rows, cols)
		rowBias := make([]float64, rows)
		colBias := make([]float64, cols)
		for i := range rowBias {
			rowBias[i] = g.Uniform(-100, 100)
		}
		for j := range colBias {
			colBias[j] = g.Uniform(-100, 100)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rowBias[i]+colBias[j])
			}
		}
		allR := make([]int, rows)
		for i := range allR {
			allR[i] = i
		}
		allC := make([]int, cols)
		for j := range allC {
			allC[j] = j
		}
		r := ResidueOf(m, allR, allC)
		return r >= 0 && r < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRecomputeMatchesIncremental(t *testing.T) {
	g := stats.NewRNG(17)
	m := matrix.New(20, 15)
	for i := 0; i < 20; i++ {
		for j := 0; j < 15; j++ {
			if g.Bool(0.8) {
				m.Set(i, j, g.Uniform(0, 1000))
			}
		}
	}
	c := New(m)
	for step := 0; step < 500; step++ {
		if g.Bool(0.5) {
			c.ToggleRow(g.Intn(20))
		} else {
			c.ToggleCol(g.Intn(15))
		}
	}
	drifted := c.Residue()
	c.Recompute()
	exact := c.Residue()
	if math.Abs(drifted-exact) > 1e-6 {
		t.Errorf("drift too large: %v vs %v", drifted, exact)
	}
}

func TestSingleRowOrColumnResidueZero(t *testing.T) {
	// With one row, every entry equals its column base plus the offset
	// structure, so residue is identically 0 — the degeneracy the FLOC
	// engine guards against with minimum-size constraints.
	m := paperdata.Figure4Matrix()
	oneRow := FromSpec(m, []int{4}, []int{0, 1, 2, 3, 4})
	if got := oneRow.Residue(); math.Abs(got) > 1e-12 {
		t.Errorf("single-row residue = %v, want 0", got)
	}
	oneCol := FromSpec(m, []int{0, 1, 2, 3}, []int{2})
	if got := oneCol.Residue(); math.Abs(got) > 1e-12 {
		t.Errorf("single-col residue = %v, want 0", got)
	}
}
