package cluster

import (
	"math"
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// referenceResidue is the pre-hoist residue kernel kept verbatim: the
// attribute base is recomputed for every specified entry and the mean
// switch sits inside the inner loop. Residue (squared false) and
// MeanSquaredResidue (squared true) must reproduce its output
// bit-for-bit — the hoist changes where divisions happen, never which
// operands meet.
func referenceResidue(c *Cluster, squared bool) float64 {
	if c.volume == 0 {
		return 0
	}
	base := c.total / float64(c.volume)
	sum := 0.0
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
			r := v - rowBase - c.colSum[j]/float64(c.colCnt[j]) + base
			if squared {
				sum += r * r
			} else {
				sum += math.Abs(r)
			}
		}
	}
	return sum / float64(c.volume)
}

// identityMatrix builds a small matrix with the given missing density,
// including values at varied magnitudes so rounding differences, were
// the kernel to introduce any, would surface.
func identityMatrix(seed int64, rows, cols int, missing float64) *matrix.Matrix {
	m := matrix.New(rows, cols)
	rng := stats.NewRNG(seed)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Bool(missing) {
				continue
			}
			m.Set(i, j, rng.Uniform(-1, 1)*math.Pow(10, float64(rng.Intn(6)-3)))
		}
	}
	return m
}

// TestResidueBitIdentity compares the hoisted scans against the
// reference across matrices, densities, both means and a mutation walk
// that leaves rows/columns with zero specified entries in the cluster.
func TestResidueBitIdentity(t *testing.T) {
	for _, missing := range []float64{0, 0.05, 0.3, 0.9} {
		for seed := int64(1); seed <= 4; seed++ {
			m := identityMatrix(seed, 40, 17, missing)
			rng := stats.NewRNG(seed * 1000)
			c := New(m)
			for step := 0; step < 200; step++ {
				if rng.Bool(0.5) {
					c.ToggleRow(rng.Intn(m.Rows()))
				} else {
					c.ToggleCol(rng.Intn(m.Cols()))
				}
				for _, squared := range []bool{false, true} {
					got := c.Residue()
					if squared {
						got = c.MeanSquaredResidue()
					}
					want := referenceResidue(c, squared)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("missing=%g seed=%d step=%d squared=%v: residue %x want %x",
							missing, seed, step, squared, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestColToggleBitIdentity checks that the ColView-based AddCol and
// RemoveCol leave every guarded aggregate with exactly the bits the
// row-major reference produces, across a random toggle walk.
func TestColToggleBitIdentity(t *testing.T) {
	m := identityMatrix(7, 60, 23, 0.2)
	rng := stats.NewRNG(71)

	// ref mirrors c but applies column toggles through the original
	// row-major scan.
	c := New(m)
	ref := New(m)
	refAddCol := func(j int) {
		ref.colPos[j] = len(ref.memberCols)
		ref.memberCols = append(ref.memberCols, j)
		for _, i := range ref.memberRows {
			v := ref.m.RowView(i)[j]
			if math.IsNaN(v) {
				continue
			}
			ref.rowSum[i] += v
			ref.rowCnt[i]++
			ref.colSum[j] += v
			ref.colCnt[j]++
			ref.total += v
			ref.volume++
		}
	}
	refRemoveCol := func(j int) {
		pos := ref.colPos[j]
		last := len(ref.memberCols) - 1
		moved := ref.memberCols[last]
		ref.memberCols[pos] = moved
		ref.colPos[moved] = pos
		ref.memberCols = ref.memberCols[:last]
		ref.colPos[j] = -1
		for _, i := range ref.memberRows {
			v := ref.m.RowView(i)[j]
			if math.IsNaN(v) {
				continue
			}
			ref.rowSum[i] -= v
			ref.rowCnt[i]--
			ref.total -= v
			ref.volume--
		}
		ref.colSum[j] = 0
		ref.colCnt[j] = 0
	}
	sameBits := func(t *testing.T, step int) {
		t.Helper()
		if math.Float64bits(c.total) != math.Float64bits(ref.total) || c.volume != ref.volume {
			t.Fatalf("step %d: total/volume diverged: %x/%d vs %x/%d",
				step, math.Float64bits(c.total), c.volume, math.Float64bits(ref.total), ref.volume)
		}
		for i := range c.rowSum {
			if math.Float64bits(c.rowSum[i]) != math.Float64bits(ref.rowSum[i]) || c.rowCnt[i] != ref.rowCnt[i] {
				t.Fatalf("step %d: row %d aggregates diverged", step, i)
			}
		}
		for j := range c.colSum {
			if math.Float64bits(c.colSum[j]) != math.Float64bits(ref.colSum[j]) || c.colCnt[j] != ref.colCnt[j] {
				t.Fatalf("step %d: col %d aggregates diverged", step, j)
			}
		}
	}

	for step := 0; step < 400; step++ {
		switch {
		case rng.Bool(0.3):
			i := rng.Intn(m.Rows())
			c.ToggleRow(i)
			ref.ToggleRow(i) // row toggles share one code path; keeps membership aligned
		default:
			j := rng.Intn(m.Cols())
			wasMember := c.HasCol(j)
			c.ToggleCol(j)
			if wasMember {
				refRemoveCol(j)
			} else {
				refAddCol(j)
			}
		}
		sameBits(t, step)
	}
}
