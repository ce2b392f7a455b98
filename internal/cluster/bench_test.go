package cluster

import (
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// benchMatrix builds a 500×60 matrix with 5% missing entries — the
// shape the floc decide benchmarks run over, so the micro-benchmarks
// here measure the same kernel the end-to-end numbers aggregate.
// (synth would plant coherent clusters but imports this package, so
// the fill is seeded uniform noise; the kernel's cost is shape- and
// missingness-bound, not value-bound.)
func benchMatrix(b *testing.B) *matrix.Matrix {
	b.Helper()
	const rows, cols = 500, 60
	m := matrix.New(rows, cols)
	rng := stats.NewRNG(97)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Bool(0.05) {
				continue // stays missing
			}
			m.Set(i, j, rng.Uniform(0, 10))
		}
	}
	return m
}

// benchCluster builds a mid-sized member set over the bench matrix:
// every third row and two thirds of the columns, the shape of a
// cluster partway through a FLOC run.
func benchCluster(b *testing.B, m *matrix.Matrix) *Cluster {
	b.Helper()
	var rows, cols []int
	for i := 0; i < m.Rows(); i += 3 {
		rows = append(rows, i)
	}
	for j := 0; j < m.Cols(); j++ {
		if j%3 != 0 {
			cols = append(cols, j)
		}
	}
	return FromSpec(m, rows, cols)
}

// BenchmarkResidueWith measures the O(volume) residue scan — the inner
// kernel of every exact gain evaluation, called (M+N)·K times per
// decide phase. Results are recorded in BENCH_floc.json.
func BenchmarkResidueWith(b *testing.B) {
	m := benchMatrix(b)
	cl := benchCluster(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cl.ResidueWith(ArithmeticMean)
	}
	_ = sink
}

// BenchmarkResidueWithPacked is the same scan with the evaluation pack
// enabled — the configuration the FLOC engine actually runs (pack.go).
// On this deliberately large 167×40 cluster the pack's edge over the
// gather is modest; its real payoff is on engine-shaped clusters
// (tens of rows × a handful of columns, five clusters scanned round-
// robin), where the packed working set stays L1-resident — see
// BenchmarkDecideAll in internal/floc.
func BenchmarkResidueWithPacked(b *testing.B) {
	m := benchMatrix(b)
	cl := benchCluster(b, m)
	cl.EnablePack()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cl.ResidueWith(ArithmeticMean)
	}
	_ = sink
}

// BenchmarkProbe measures the read-only probes behind every exact gain
// evaluation, one leg per probe kind, on the bench cluster with its
// evaluation pack enabled (the FLOC engine's configuration). One op is
// one Load plus one toggled-residue scan; "row-insert-x4" is one pass
// of the batched kernel serving four row insertions, so its ns/op
// covers four candidates. Probes write nothing, so every op sees the
// same state.
func BenchmarkProbe(b *testing.B) {
	m := benchMatrix(b)
	cl := benchCluster(b, m)
	cl.EnablePack()
	single := func(isRow bool, idx int) func(b *testing.B) {
		return func(b *testing.B) {
			var p Probe
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				p.Load(cl, isRow, idx)
				sink += p.Residue(ArithmeticMean)
			}
			_ = sink
		}
	}
	b.Run("row-insert-x4", func(b *testing.B) {
		var ps [4]Probe
		var out [4]float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for q := range ps {
				ps[q].Load(cl, true, 1+3*q) // rows 1, 4, 7, 10 are not members
			}
			RowInsertionResidues(ps[:], ArithmeticMean, out[:])
		}
	})
	b.Run("row-remove", single(true, 3))  // row 3 is a member
	b.Run("col-insert", single(false, 0)) // column 0 is not a member
	b.Run("col-remove", single(false, 1)) // column 1 is a member
}

// BenchmarkInsertionMass measures the incremental gain tier's
// insertion-side kernel: scoring a candidate row/column against the
// cluster's current bases in one O(row)/O(col) pass — what replaces
// the exact O(volume) rescan of BenchmarkResidueWith when ranking
// insertions under GainMode=incremental. (Removals read the recorded
// share in O(1) and need no benchmark.)
func BenchmarkInsertionMass(b *testing.B) {
	m := benchMatrix(b)
	b.Run("row", func(b *testing.B) {
		cl := benchCluster(b, m)
		cl.EnableResidueAggregates(ArithmeticMean)
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			mass, _ := cl.RowInsertionMass(1, ArithmeticMean) // row 1 is not a member
			sink += mass
		}
		_ = sink
	})
	b.Run("col", func(b *testing.B) {
		cl := benchCluster(b, m)
		cl.EnableResidueAggregates(ArithmeticMean)
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			mass, _ := cl.ColInsertionMass(0, ArithmeticMean) // column 0 is not a member
			sink += mass
		}
		_ = sink
	})
}
