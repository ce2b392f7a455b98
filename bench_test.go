// Benchmarks regenerating the paper's evaluation (one per table and
// figure of Section 6) plus ablation and micro benchmarks for the
// design choices called out in DESIGN.md.
//
// The table/figure benchmarks wrap internal/experiments at a small
// scale so `go test -bench=.` completes quickly; run cmd/experiments
// with a larger -scale for the real reproduction (EXPERIMENTS.md
// records those results).
package deltacluster_test

import (
	"testing"

	deltacluster "deltacluster"
	"deltacluster/internal/cluster"
	"deltacluster/internal/experiments"
	"deltacluster/internal/floc"
	"deltacluster/internal/synth"
)

// benchOpts is the common small-scale configuration for the paper
// experiments under `go test -bench`.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.08, Seed: 1, Trials: 1}
}

func benchExperiment(b *testing.B, run func(experiments.Options) ([]*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure ---------------------------

func BenchmarkTable1MovieLens(b *testing.B)    { benchExperiment(b, experiments.Table1MovieLens) }
func BenchmarkMicroarrayFLOCvsCC(b *testing.B) { benchExperiment(b, experiments.Microarray) }
func BenchmarkTable2Iterations(b *testing.B)   { benchExperiment(b, experiments.Table2Iterations) }
func BenchmarkTable3ResponseTime(b *testing.B) { benchExperiment(b, experiments.Table3ResponseTime) }
func BenchmarkFig8SeedVolume(b *testing.B)     { benchExperiment(b, experiments.Figure8SeedVolume) }
func BenchmarkFig9VolumeVariance(b *testing.B) { benchExperiment(b, experiments.Figure9VolumeVariance) }
func BenchmarkFig10Alternative(b *testing.B)   { benchExperiment(b, experiments.Figure10Alternative) }
func BenchmarkTable4ActionOrder(b *testing.B)  { benchExperiment(b, experiments.Table4ActionOrder) }
func BenchmarkTable5MixedSeeding(b *testing.B) { benchExperiment(b, experiments.Table5VolumeDisparity) }

// --- Ablations (DESIGN.md §4) ---------------------------------------

func ablationDataset(b *testing.B) *synth.Dataset {
	b.Helper()
	ds, err := synth.Generate(synth.Config{
		Rows: 400, Cols: 30, NumClusters: 8,
		VolumeMean: 125, VolumeVariance: 0, RowColRatio: 10,
		TargetResidue: 5,
	}, 42)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchFLOC(b *testing.B, mutate func(*floc.Config)) {
	b.Helper()
	ds := ablationDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := floc.DefaultConfig(10, 15)
		cfg.Seed = int64(i + 1)
		mutate(&cfg)
		if _, err := floc.Run(ds.Matrix, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Action orders (Section 5.2).
func BenchmarkAblationOrderFixed(b *testing.B) {
	benchFLOC(b, func(cfg *floc.Config) { cfg.Order = floc.FixedOrder; cfg.SeedMode = floc.SeedRandom })
}
func BenchmarkAblationOrderRandom(b *testing.B) {
	benchFLOC(b, func(cfg *floc.Config) { cfg.Order = floc.RandomOrder; cfg.SeedMode = floc.SeedRandom })
}
func BenchmarkAblationOrderWeighted(b *testing.B) {
	benchFLOC(b, func(cfg *floc.Config) { cfg.Order = floc.WeightedRandomOrder; cfg.SeedMode = floc.SeedRandom })
}

// Seeding strategies.
func BenchmarkAblationSeedRandom(b *testing.B) {
	benchFLOC(b, func(cfg *floc.Config) { cfg.SeedMode = floc.SeedRandom })
}
func BenchmarkAblationSeedAnchored(b *testing.B) {
	benchFLOC(b, func(cfg *floc.Config) { cfg.SeedMode = floc.SeedAnchored })
}

// Gain policies: the r-residue δ-cluster objective vs the paper's
// literal residue reduction.
func BenchmarkAblationVolumeGain(b *testing.B) {
	benchFLOC(b, func(cfg *floc.Config) { cfg.GainPolicy = floc.VolumeGain })
}
func BenchmarkAblationResidueGain(b *testing.B) {
	benchFLOC(b, func(cfg *floc.Config) {
		cfg.GainPolicy = floc.ResidueGain
		cfg.SeedMode = floc.SeedRandom
	})
}

// Polish pass on/off.
func BenchmarkAblationPolishOn(b *testing.B) {
	benchFLOC(b, func(cfg *floc.Config) { cfg.Polish = true })
}
func BenchmarkAblationPolishOff(b *testing.B) {
	benchFLOC(b, func(cfg *floc.Config) { cfg.Polish = false })
}

// --- Micro benchmarks on the core data structure --------------------

func benchCluster(b *testing.B) (*cluster.Cluster, *synth.Dataset) {
	b.Helper()
	ds := ablationDataset(b)
	spec := ds.Embedded[0]
	return cluster.FromSpec(ds.Matrix, spec.Rows, spec.Cols), ds
}

func BenchmarkClusterResidue(b *testing.B) {
	cl, _ := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cl.Residue()
	}
}

func BenchmarkClusterToggleRow(b *testing.B) {
	cl, _ := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.ToggleRow(0)
	}
}

func BenchmarkClusterToggleCol(b *testing.B) {
	cl, _ := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.ToggleCol(0)
	}
}

func BenchmarkClusterClone(b *testing.B) {
	cl, _ := benchCluster(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cl.Clone()
	}
}

func BenchmarkResidueOfWholeMatrix(b *testing.B) {
	ds := ablationDataset(b)
	rows := make([]int, ds.Matrix.Rows())
	for i := range rows {
		rows[i] = i
	}
	cols := make([]int, ds.Matrix.Cols())
	for j := range cols {
		cols[j] = j
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cluster.ResidueOf(ds.Matrix, rows, cols)
	}
}

func BenchmarkGenerateSynthetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.Config{
			Rows: 400, Cols: 30, NumClusters: 8,
			VolumeMean: 125, RowColRatio: 10, TargetResidue: 5,
		}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChengChurchOneBicluster(b *testing.B) {
	ds := ablationDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deltacluster.ChengChurch(ds.Matrix, deltacluster.BiclusterConfig{
			K: 1, Delta: 300, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeriveDifferences(b *testing.B) {
	ds := ablationDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = deltacluster.DeriveDifferences(ds.Matrix)
	}
}
