package floc

import (
	"fmt"
	"testing"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
	"deltacluster/internal/synth"
)

// benchEngine builds a phase-1-seeded engine over a 500×60 planted
// matrix with missing values — the decide phase then scores
// (500+60)·K candidate actions per call, the workload the parallel
// sharding targets. Seeding is deterministic, so every benchmark run
// decides over the identical state.
func benchEngine(b *testing.B, workers int) *engine {
	b.Helper()
	m := plantedMissingMatrix(b, 97, 500, 60, 5, 800, 0.05)
	cfg := Config{
		K: 5, GainPolicy: VolumeGain, MaxResidue: 3,
		SeedMode: SeedRandom, SeedProbability: 0.1,
		Constraints: Constraints{MinRows: 2, MinCols: 2, MaxOverlap: -1},
		Seed:        42, Workers: workers,
	}
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		b.Fatal(err)
	}
	return newEngine(m, &cfg)
}

// BenchmarkDecideAll measures one decide phase — the embarrassingly
// parallel (M+N)·K gain sweep — at several worker counts. decideAll
// never disturbs engine state (its evaluations reverse every toggle
// exactly), so back-to-back calls measure identical work, and the
// serial/parallel pair shares one engine per worker count. Results
// are recorded in BENCH_floc.json; cmd/benchdiff compares fresh runs
// against them.
func BenchmarkDecideAll(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := benchEngine(b, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = e.decideAll()
			}
		})
	}
}

// BenchmarkIterate measures a full phase-2 iteration — decide, order,
// sequential apply with rollback, cache rebuild — the unit of work
// the run loop repeats until convergence. The apply loop is
// inherently serial (each action observes its predecessors), so this
// bounds the overall speedup parallel decide can deliver.
func BenchmarkIterate(b *testing.B) {
	e := benchEngine(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	best := e.costSum
	for i := 0; i < b.N; i++ {
		best, _ = e.iterate(best)
	}
}

// BenchmarkDecideAllIncremental is BenchmarkDecideAll under
// GainMode=incremental: the same (M+N)·K candidate sweep with every
// exact O(volume) rescan replaced by aggregate arithmetic — O(1)
// mass reads for removals, one O(row)/O(col) pass for insertions.
// The ratio of this benchmark to BenchmarkDecideAll is the tier's
// headline speedup; BENCH_floc.json records both and the CI benchdiff
// gate covers them.
func BenchmarkDecideAllIncremental(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := benchEngine(b, workers)
			e.cfg.GainMode = GainIncremental
			for _, cl := range e.clusters {
				cl.EnableResidueAggregates(e.cfg.ResidueMean)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = e.decideAll()
			}
		})
	}
}

// seedSink keeps BenchmarkSeedAnchored's result observable.
var seedSink []*cluster.Cluster

// BenchmarkSeedAnchored measures phase 1 under anchored seeding — the
// default for VolumeGain — on the two realistic stand-ins: the
// complete 2884×17 yeast microarray at the Section 6.1.2 setting
// (k = 60, δ = 20), where seeding is nearly all of a FLOC job, and the
// sparse 943×1682 ratings matrix at the MovieLens setting (k = 10,
// δ = 1, α = 0.6), 5.5% specified, where the kernels walk the
// scratch's specified-entry lists and the row carve takes the row-wise
// path behind its specified-count pre-filter. One op is one
// anchoredSeeds call of the default 100·K attempts with the engine's
// cost function, including the per-run sparse index build; -benchmem
// records the scratch with its index and the survivors' clusters, the
// only per-run allocations.
func BenchmarkSeedAnchored(b *testing.B) {
	yeast, err := synth.Yeast(synth.DefaultYeastConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	ratings, err := synth.MovieLens(synth.DefaultMovieLensConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	ratingsCfg := DefaultConfig(10, 1)
	ratingsCfg.Constraints.Occupancy = 0.6
	for _, bc := range []struct {
		name string
		m    *matrix.Matrix
		cfg  Config
	}{
		{"yeast", yeast.Matrix, DefaultConfig(60, 20)},
		{"ratings", ratings.Matrix, ratingsCfg},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := bc.cfg
			cfg.Seed = 1
			if err := cfg.validate(bc.m.Rows(), bc.m.Cols()); err != nil {
				b.Fatal(err)
			}
			bc.m.EnsureDerived()
			e := &engine{m: bc.m, cfg: &cfg, w: float64(bc.m.SpecifiedCount())}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seedSink = anchoredSeeds(bc.m, &cfg, stats.NewRNG(cfg.Seed), e.seedCost)
			}
		})
	}
}
