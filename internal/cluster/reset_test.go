package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"deltacluster/internal/stats"
)

// TestResetMatchesFromSpec reuses one cluster for a long sequence of
// random memberships — dirtied in between by toggles and the
// evaluation pack — and checks that each Reset and
// FromSpec-order repopulation carries exactly the bits a fresh
// FromSpec cluster does: membership in internal order, aggregates,
// the residue and the mean squared residue.
func TestResetMatchesFromSpec(t *testing.T) {
	for _, missing := range []float64{0, 0.2} {
		m := identityMatrix(17, 40, 12, missing)
		rng := stats.NewRNG(3)
		reused := New(m)
		for trial := 0; trial < 300; trial++ {
			rows := rng.SampleWithoutReplacement(m.Rows(), 1+rng.Intn(m.Rows()))
			cols := rng.SampleWithoutReplacement(m.Cols(), 1+rng.Intn(m.Cols()))

			reused.Reset()
			for _, j := range cols {
				reused.AddCol(j)
			}
			for _, i := range rows {
				reused.AddRow(i)
			}
			fresh := FromSpec(m, rows, cols)
			if got, want := resetBits(reused), resetBits(fresh); got != want {
				t.Fatalf("missing=%v trial %d: reset cluster\n%s\nfresh FromSpec\n%s", missing, trial, got, want)
			}

			// Leave the cluster dirty for the next Reset: stray
			// toggles, and now and then the evaluation pack.
			if trial%3 == 1 {
				reused.EnablePack()
			}
			for k := 0; k < 3; k++ {
				reused.ToggleRow(rng.Intn(m.Rows()))
				reused.ToggleCol(rng.Intn(m.Cols()))
			}
		}
	}
}

// resetBits renders everything a Reset must restore: member order,
// every matrix-sized aggregate, the evaluation pack's state and the
// bits of the residue and the mean squared residue.
func resetBits(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%v cols=%v\n", c.memberRows, c.memberCols)
	for i := range c.rowPos {
		fmt.Fprintf(&b, "row %d: pos=%d sum=%016x cnt=%d\n", i, c.rowPos[i], math.Float64bits(c.rowSum[i]), c.rowCnt[i])
	}
	for j := range c.colPos {
		fmt.Fprintf(&b, "col %d: pos=%d sum=%016x cnt=%d\n", j, c.colPos[j], math.Float64bits(c.colSum[j]), c.colCnt[j])
	}
	fmt.Fprintf(&b, "total=%016x volume=%d pack=%d\n",
		math.Float64bits(c.total), c.volume, c.packStride)
	fmt.Fprintf(&b, "arith=%016x sq=%016x\n",
		math.Float64bits(c.Residue()), math.Float64bits(c.MeanSquaredResidue()))
	return b.String()
}
