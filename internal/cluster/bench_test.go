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

// BenchmarkResidue measures the O(volume) residue scan that prices
// every applied action and every scored seed candidate (gain
// evaluations replay it through the probes, BenchmarkProbe). Results
// are recorded in BENCH_floc.json.
func BenchmarkResidue(b *testing.B) {
	m := benchMatrix(b)
	cl := benchCluster(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cl.Residue()
	}
	_ = sink
}

// BenchmarkResiduePacked is the same scan with the evaluation pack
// enabled — the configuration the FLOC engine actually runs (pack.go).
// On this deliberately large 167×40 cluster the pack's edge over the
// gather is modest; its real payoff is on engine-shaped clusters
// (tens of rows × a handful of columns, five clusters scanned round-
// robin), where the packed working set stays L1-resident — see
// BenchmarkDecideAll in internal/floc.
func BenchmarkResiduePacked(b *testing.B) {
	m := benchMatrix(b)
	cl := benchCluster(b, m)
	cl.EnablePack()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cl.Residue()
	}
	_ = sink
}

// BenchmarkProbe measures the read-only probes behind every exact gain
// evaluation on the bench cluster with its evaluation pack enabled
// (the FLOC engine's configuration). One op is one Load plus one
// Residues call: "row-insert-x16" serves sixteen row insertions,
// "row-remove-x16" sixteen row removals and "col-insert-x16" sixteen
// column insertions in one pass where the CPU has AVX2 (four passes of
// the portable kernels otherwise); the single legs serve one toggle.
// Probes write nothing, so every op sees the same state.
func BenchmarkProbe(b *testing.B) {
	m := benchMatrix(b)
	cl := benchCluster(b, m)
	cl.EnablePack()
	leg := func(isRow bool, idxs ...int) func(b *testing.B) {
		return func(b *testing.B) {
			var pb Batch
			out := make([]float64, len(idxs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pb.Load(cl, isRow, idxs...)
				pb.Residues(out)
			}
		}
	}
	every := func(from, step, n int) []int {
		out := make([]int, n)
		for q := range out {
			out[q] = from + step*q
		}
		return out
	}
	b.Run("row-insert-x4", leg(true, every(1, 3, 4)...))   // rows 1, 4, 7, 10 are not members
	b.Run("row-insert-x16", leg(true, every(1, 3, 16)...)) // nor are 13, …, 46
	b.Run("row-remove", leg(true, 3))                      // row 3 is a member
	b.Run("row-remove-x16", leg(true, every(0, 3, 16)...)) // as are 0, 6, …, 45
	b.Run("col-insert", leg(false, 0))                     // column 0 is not a member
	b.Run("col-insert-x16", leg(false, 0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42, 45))
	b.Run("col-remove", leg(false, 1)) // column 1 is a member
}
