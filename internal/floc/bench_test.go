package floc

import (
	"fmt"
	"slices"
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
func benchEngine(b testing.TB, workers int) *engine {
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

// syntheticEngine builds a randomly seeded engine at the shape of the
// synthetic-iterate benchmark workload: a 2000×100 Table-3 synthetic
// matrix (30 planted clusters of mean volume 800), k = 30, δ = 15,
// rows seeded with probability 0.05 and columns with 0.2, workers = 1.
// Its clusters are narrow and tall, so column insertions and row
// removals weigh more in its decide phase than in benchEngine's.
func syntheticEngine(tb testing.TB) *engine {
	tb.Helper()
	const rows, cols = 2000, 100
	ds, err := synth.Generate(synth.Config{
		Rows: rows, Cols: cols, NumClusters: 30,
		VolumeMean:    800,
		RowColRatio:   (0.04 * rows) / (0.1 * cols),
		TargetResidue: 5,
	}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig(30, 15)
	cfg.SeedMode = SeedRandom
	cfg.SeedRowProbability = 0.05
	cfg.SeedColProbability = 0.2
	cfg.Workers = 1
	cfg.Seed = 1
	if err := cfg.validate(ds.Matrix.Rows(), ds.Matrix.Cols()); err != nil {
		tb.Fatal(err)
	}
	return newEngine(ds.Matrix, &cfg)
}

// BenchmarkDecideAll measures one decide phase — the embarrassingly
// parallel (M+N)·K gain sweep — at several worker counts, and at the
// synthetic-iterate workload's shape on one worker. decideAll writes
// nothing but its decisions and probe scratch (every evaluation is a
// read-only probe), so back-to-back calls measure identical work.
// Results are recorded in BENCH_floc.json; cmd/benchdiff compares
// fresh runs against them.
func BenchmarkDecideAll(b *testing.B) {
	run := func(e *engine) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = e.decideAll()
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), run(benchEngine(b, workers)))
	}
	b.Run("synthetic-iterate", run(syntheticEngine(b)))
}

// BenchmarkIterate measures a full phase-2 iteration — decide, order,
// sequential apply with rollback, cache rebuild — the unit of work
// the run loop repeats until convergence. The apply loop is
// inherently serial (each action observes its predecessors), so this
// bounds the overall speedup parallel decide can deliver. The engine
// is warmed first (warmIterate), so every timed iteration repeats the
// same work and allocs/op reads 0 at any b.N.
func BenchmarkIterate(b *testing.B) {
	e := benchEngine(b, 1)
	best := warmIterate(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, _ = e.iterate(best)
	}
}

// warmIterate runs e's phase-2 iterations until one does not improve
// the clustering, and then one more, and returns the best cost to
// pass on. The improving iterations grow the clusters' membership,
// pack and checkpoint slices, and the first rollback sizes its own
// scratch; from then on each iteration applies and rolls back the
// same actions without allocating. On the bench engine that takes
// three iterations.
func warmIterate(e *engine) float64 {
	best := e.costSum
	for improved := true; improved; {
		best, improved = e.iterate(best)
	}
	best, _ = e.iterate(best)
	return best
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

// seedKernelCase is one row carve of the yeast stand-in's seeding,
// with what refine's first round reads after it: the anchor row, the
// carved columns and how many of them must clump, the carved rows, and
// their column adjustments.
type seedKernelCase struct {
	i1   int
	cols []int
	need int
	rows []int
	adj  []float64
}

// seedKernelCases draws anchor pairs from run seed 1 as anchoredSeeds
// does on m (δ = delta, at least three rows and columns) and keeps, for
// slack 0, slack 1 and slack 2 and up each, the first n column-major
// carves that carve at least three rows: a fixed set of inputs for the
// seeding kernels.
func seedKernelCases(tb testing.TB, m *matrix.Matrix, delta float64, n int) (cases [3][]seedKernelCase) {
	tb.Helper()
	scr := newSeedScratch(m)
	rng := stats.NewRNG(1)
	const minRows, minCols = 3, 3
	for a := 0; a < 100000 && (len(cases[0]) < n || len(cases[1]) < n || len(cases[2]) < n); a++ {
		i1, i2 := rng.Intn(m.Rows()), rng.Intn(m.Rows())
		if i1 == i2 {
			continue
		}
		cols := scr.carveCols(m, i1, i2, delta, minCols)
		if len(cols) < minCols {
			continue
		}
		need := maxInt(minCols, (2*len(cols)+2)/3)
		slack := len(cols) - need
		k := min(slack, 2)
		if len(cases[k]) == n {
			continue
		}
		rows := scr.carveRows(m, i1, cols, delta, need)
		if len(rows) < minRows {
			continue
		}
		c := seedKernelCase{i1: i1, cols: slices.Clone(cols), need: need, rows: slices.Clone(rows)}
		scr.columnAdjustments(m, rows, false)
		c.adj = slices.Clone(scr.colAdj)
		cases[k] = append(cases[k], c)
	}
	if len(cases[0]) < n || len(cases[1]) < n || len(cases[2]) < n {
		tb.Fatalf("%d slack-0, %d slack-1 and %d slack-2-and-up carves, want %d of each", len(cases[0]), len(cases[1]), len(cases[2]), n)
	}
	return cases
}

// BenchmarkSeedKernels times anchored seeding's complete-matrix kernels
// one by one on the full yeast stand-in (2884×17, δ = 20), each over
// the same 64 slack-0, 64 slack-1 and 64 slack-2-and-up carves
// (seedKernelCases), so a seeding regression shows in a named kernel.
// Each runs as seeding dispatches it: the AVX2 kernels where the CPU
// has them, the Go loops otherwise. One op is one pass over the cases:
//
//   - carve-slack0, carve-slack1, carve-slack2plus: the row carve
//     (carveRows) on the 64 carves of that slack;
//   - select-rows: refine's row re-selection (selectRowsComplete) on
//     the 128 slack-0 and slack-1 carves' columns, under their rows'
//     column adjustments;
//   - col-stats: a refine round's column statistics over the same 128
//     carves' rows: the adjustments' sums, then the offset-corrected
//     means and deviations (columnSums).
func BenchmarkSeedKernels(b *testing.B) {
	yeast, err := synth.Yeast(synth.DefaultYeastConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	m := yeast.Matrix
	m.EnsureDerived()
	const delta = 20
	cases := seedKernelCases(b, m, delta, 64)
	all := slices.Concat(cases[0], cases[1])
	scr := newSeedScratch(m)
	bench := func(name string, op func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
	for k, name := range []string{"carve-slack0", "carve-slack1", "carve-slack2plus"} {
		bench(name, func() {
			for _, c := range cases[k] {
				scr.carveRows(m, c.i1, c.cols, delta, c.need)
			}
		})
	}
	bench("select-rows", func() {
		for _, c := range all {
			copy(scr.colAdj, c.adj)
			scr.selectRowsComplete(m, c.cols, delta, scr.vector)
		}
	})
	bench("col-stats", func() {
		for _, c := range all {
			scr.columnAdjustments(m, c.rows, scr.vector)
			clear(scr.colMean)
			clear(scr.colDev)
			scr.columnSums(m, c.rows, colCentered, scr.colMean, scr.vector)
			for j, n := range scr.colCnt {
				scr.colMean[j] /= float64(n)
			}
			scr.columnSums(m, c.rows, colDeviations, scr.colDev, scr.vector)
		}
	})
}
