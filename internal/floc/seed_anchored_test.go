package floc

import (
	"math"
	"slices"
	"testing"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
	"deltacluster/internal/synth"
)

// plantedMatrix builds a matrix with one planted shifted cluster whose
// rows/cols are known, on a high-contrast background.
func plantedMatrix(t *testing.T, rows, cols int, cRows, cCols []int, noise float64, seed int64) *matrix.Matrix {
	t.Helper()
	g := stats.NewRNG(seed)
	m := matrix.New(rows, cols)
	for i := 0; i < rows; i++ {
		r := m.RowView(i)
		for j := range r {
			r[j] = g.Uniform(0, 600)
		}
	}
	base := 250.0
	colBias := map[int]float64{}
	for _, j := range cCols {
		colBias[j] = g.Uniform(-100, 100)
	}
	for _, i := range cRows {
		rb := g.Uniform(-80, 80)
		r := m.RowView(i)
		for _, j := range cCols {
			r[j] = base + rb + colBias[j] + g.NormFloat64()*noise
		}
	}
	return m
}

func TestRefineCandidateRecoversFromNoisyCarve(t *testing.T) {
	cRows := []int{3, 8, 15, 22, 31, 40, 47, 52, 60, 68, 71, 80}
	cCols := []int{2, 5, 9, 13, 17}
	m := plantedMatrix(t, 90, 20, cRows, cCols, 4, 1)

	// Noisy starting point: half the true rows, the true cols plus two
	// junk cols.
	startRows := cRows[:6]
	startCols := append(append([]int{}, cCols...), 0, 19)
	rows, cols := refineCandidate(m, startRows, startCols, 12, 3, 3)

	gotRows := map[int]bool{}
	for _, r := range rows {
		gotRows[r] = true
	}
	hit := 0
	for _, r := range cRows {
		if gotRows[r] {
			hit++
		}
	}
	if hit < len(cRows)-1 {
		t.Errorf("refined rows recovered %d/%d true rows", hit, len(cRows))
	}
	gotCols := map[int]bool{}
	for _, c := range cols {
		gotCols[c] = true
	}
	for _, c := range cCols {
		if !gotCols[c] {
			t.Errorf("true col %d lost", c)
		}
	}
	if gotCols[0] || gotCols[19] {
		t.Errorf("junk cols survived refinement: %v", cols)
	}
}

func TestRefineCandidateRejectsGarbage(t *testing.T) {
	m := plantedMatrix(t, 60, 15, nil, nil, 0, 2) // pure noise
	rows, cols := refineCandidate(m, []int{0, 1, 2, 3}, []int{0, 1, 2, 3}, 5, 3, 3)
	if len(rows) >= 3 && len(cols) >= 3 {
		// A tiny accidental fixed point is possible but it must not be
		// large.
		if len(rows) > 10 {
			t.Errorf("garbage refinement produced %d rows", len(rows))
		}
	}
}

func TestAnchoredSeedsFindPlantedCluster(t *testing.T) {
	cRows := []int{5, 12, 19, 23, 30, 37, 41, 50, 55, 62, 70, 77, 84, 90, 99}
	cCols := []int{1, 4, 8, 11, 14}
	m := plantedMatrix(t, 110, 18, cRows, cCols, 4, 3)

	cfg := DefaultConfig(4, 12)
	cfg.SeedAttempts = 2000
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		t.Fatal(err)
	}
	e := &engine{m: m, cfg: &cfg, w: float64(m.SpecifiedCount())}
	costOf := func(cl *cluster.Cluster) float64 {
		return e.cost(cl.Residue(), cl.Volume(), cl.NumRows(), cl.NumCols())
	}
	seeds := anchoredSeeds(m, &cfg, stats.NewRNG(9), costOf)

	best := 0.0
	for _, s := range seeds {
		truth := cluster.FromSpec(m, cRows, cCols)
		inter := s.Overlap(truth)
		j := float64(inter) / float64(len(cRows)*len(cCols)+s.NumRows()*s.NumCols()-inter)
		if j > best {
			best = j
		}
	}
	if best < 0.8 {
		t.Errorf("best seed Jaccard vs planted cluster = %.2f, want ≥ 0.8", best)
	}
}

func TestAnchoredSeedsHandleMissingValues(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Rows: 300, Cols: 30, NumClusters: 4,
		VolumeMean: 150, VolumeVariance: 0, RowColRatio: 6,
		TargetResidue: 4, MissingFraction: 0.15,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(6, 12)
	cfg.Seed = 5
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 6 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
}

func TestValueSpread(t *testing.T) {
	m, _ := matrix.NewFromRows([][]float64{{1, 5}, {math.NaN(), -3}})
	if got := valueSpread(m); got != 8 {
		t.Errorf("spread = %v, want 8", got)
	}
	empty := matrix.New(2, 2)
	if got := valueSpread(empty); got != 1 {
		t.Errorf("spread of empty = %v, want fallback 1", got)
	}
}

func TestRowOverlapHelper(t *testing.T) {
	m, _ := matrix.NewFromRows([][]float64{{1}, {2}, {3}, {4}})
	a := cluster.FromSpec(m, []int{0, 1, 2}, []int{0})
	b := cluster.FromSpec(m, []int{2, 3}, []int{0})
	if got := rowOverlap(a.Rows(), b); got != 1 {
		t.Errorf("rowOverlap = %d, want 1", got)
	}
}

// clumpValues draws n values from a small lattice so that ties, exact
// pair differences equal to the window width, and zeros of both signs
// are common; scale 0.1 makes the differences round.
func clumpValues(rng *stats.RNG, n int, scale float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		k := rng.Intn(9) - 4
		if k == 0 && rng.Bool(0.5) {
			xs[i] = math.Copysign(0, -1)
			continue
		}
		xs[i] = float64(k) * scale
	}
	return xs
}

// TestClumpsMatchesDensestWindow pins the sort-free carve predicate to
// its definition on random slices: clumps(xs, need, w) must equal
// densestWindow(xs, w) ≥ need for every need, with widths drawn from
// the slice's own pair differences (the boundary case) as well as
// fixed ones.
func TestClumpsMatchesDensestWindow(t *testing.T) {
	rng := stats.NewRNG(21)
	for trial := 0; trial < 4000; trial++ {
		scale := 1.0
		if trial%2 == 1 {
			scale = 0.1
		}
		xs := clumpValues(rng, rng.Intn(16), scale)
		widths := []float64{0, scale, 2.5 * scale}
		if len(xs) >= 2 {
			widths = append(widths, xs[rng.Intn(len(xs))]-xs[rng.Intn(len(xs))])
		}
		for _, w := range widths {
			if w < 0 {
				w = -w
			}
			ref := append([]float64(nil), xs...)
			_, count := densestWindow(ref, w)
			for need := 1; need <= len(xs)+1; need++ {
				got := clumps(append([]float64(nil), xs...), need, w)
				if want := count >= need; got != want {
					t.Fatalf("xs=%v width=%v need=%d: clumps=%v, densestWindow count %d", xs, w, need, got, count)
				}
			}
		}
	}
}

// carveRowsReference is the row carve written directly from its
// definition: each row's offsets against the anchor, densestWindow,
// count ≥ need.
func carveRowsReference(m *matrix.Matrix, i1 int, cols []int, delta float64, need int) []int {
	row1 := m.RowView(i1)
	rows := []int{}
	for r := 0; r < m.Rows(); r++ {
		var offsets []float64
		for _, j := range cols {
			if v := m.RowView(r)[j]; !math.IsNaN(v) && !math.IsNaN(row1[j]) {
				offsets = append(offsets, v-row1[j])
			}
		}
		if len(offsets) < need {
			continue
		}
		if _, c := densestWindow(offsets, 2*delta); c >= need {
			rows = append(rows, r)
		}
	}
	return rows
}

// TestCarveRowsPathsAgree checks the row carve's two paths against
// its definition: on complete matrices the column-major path (slack 0
// and 1) and the row-wise path must return the reference row set, and
// on a matrix with missing entries the row-wise path must. Values sit
// on a lattice with signed zeros, so offsets tie and spans land
// exactly on the window width.
func TestCarveRowsPathsAgree(t *testing.T) {
	rng := stats.NewRNG(8)
	for trial := 0; trial < 400; trial++ {
		rows, cols := 30+rng.Intn(40), 4+rng.Intn(8)
		scale := []float64{1, 0.1}[trial%2]
		missing := trial%4 == 3
		data := make([][]float64, rows)
		for i := range data {
			data[i] = clumpValues(rng, cols, scale)
			if missing {
				for j := range data[i] {
					if rng.Bool(0.15) {
						data[i][j] = math.NaN()
					}
				}
			}
		}
		m, err := matrix.NewFromRows(data)
		if err != nil {
			t.Fatal(err)
		}
		scr := newSeedScratch(m)
		if scr.complete == missing {
			t.Fatalf("trial %d: complete = %v on a matrix with missing=%v", trial, scr.complete, missing)
		}
		i1 := rng.Intn(rows)
		var anchorCols []int
		for j, v := range m.RowView(i1) {
			if !math.IsNaN(v) {
				anchorCols = append(anchorCols, j)
			}
		}
		if len(anchorCols) < 3 {
			continue
		}
		rng.Shuffle(len(anchorCols), func(a, b int) { anchorCols[a], anchorCols[b] = anchorCols[b], anchorCols[a] })
		carve := anchorCols[:3+rng.Intn(len(anchorCols)-2)]
		n := len(carve)
		delta := float64(1+rng.Intn(4)) * scale / 2
		for _, need := range []int{maxInt(3, (2*n+2)/3), n, n - 1} {
			if need < 2 {
				continue
			}
			want := carveRowsReference(m, i1, carve, delta, need)
			paths := []bool{false}
			if !missing {
				paths = append(paths, true)
			}
			for _, complete := range paths {
				scr.complete = complete
				got := scr.carveRows(m, i1, carve, delta, need)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d (complete path %v, need %d of %d, delta %v): rows %v, reference %v",
						trial, complete, need, n, delta, got, want)
				}
			}
		}
	}
}

// TestAnchoredSeedsAllocations bounds anchoredSeeds' allocations by K
// rather than by the candidates it scores: the scratch with its sparse
// index, the candidate arenas' growth and the at most K survivors'
// clusters. A cluster, an index build or any other allocation per
// scored candidate would exceed the bound, as each input yields
// hundreds of candidates; the test checks that it does, counting the
// cost function's calls. The complete yeast leg takes the column-major
// carve, the sparse ratings leg the row-wise carve with its pre-filter.
func TestAnchoredSeedsAllocations(t *testing.T) {
	yeast, err := synth.Yeast(synth.YeastConfig{
		Genes: 500, Conditions: 17, Modules: 6,
		GenesPerModule: 40, ConditionsPerModule: 8,
		NoiseResidue: 8,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	ratings, err := synth.MovieLens(synth.MovieLensConfig{
		Users: 300, Movies: 400, Ratings: 24000,
		Groups: 6, MinPerUser: 20,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ratingsCfg := DefaultConfig(4, 1)
	ratingsCfg.Constraints.Occupancy = 0.6
	for _, leg := range []struct {
		name     string
		m        *matrix.Matrix
		cfg      Config
		attempts int
	}{
		{"yeast", yeast.Matrix, DefaultConfig(6, 20), 3000},
		{"ratings", ratings.Matrix, ratingsCfg, 6000},
	} {
		t.Run(leg.name, func(t *testing.T) {
			m, cfg := leg.m, leg.cfg
			cfg.SeedAttempts = leg.attempts
			if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
				t.Fatal(err)
			}
			m.EnsureDerived()
			e := &engine{m: m, cfg: &cfg, w: float64(m.SpecifiedCount())}
			scored := 0
			cost := func(cl *cluster.Cluster) float64 {
				scored++
				return e.seedCost(cl)
			}
			var seeds []*cluster.Cluster
			allocs := testing.AllocsPerRun(3, func() {
				scored = 0
				seeds = anchoredSeeds(m, &cfg, stats.NewRNG(1), cost)
			})
			perCluster := testing.AllocsPerRun(3, func() {
				cluster.FromSpec(m, seeds[0].Rows(), seeds[0].Cols())
			})
			bound := 64 + 2*float64(cfg.K)*perCluster
			if float64(scored) < 4*bound {
				t.Fatalf("only %d candidates scored; the input must yield many more than the bound %.0f", scored, bound)
			}
			if allocs > bound {
				t.Errorf("anchoredSeeds: %.0f allocations for %d scored candidates, want at most %.0f (64 + 2·K·%.0f per cluster)",
					allocs, scored, bound, perCluster)
			}
			t.Logf("%.0f allocations, %d candidates scored, bound %.0f", allocs, scored, bound)
		})
	}
}
