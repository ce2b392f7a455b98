package floc

import (
	"math"
	"testing"

	"deltacluster/internal/cluster"
	"deltacluster/internal/eval"
	"deltacluster/internal/synth"
)

// testDataset builds the small standard workload used across the FLOC
// tests: 400×30, eight embedded 35×4 clusters of residue ≈ 5 on a
// high-contrast background.
func testDataset(t *testing.T, seed int64) *synth.Dataset {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Rows: 400, Cols: 30, NumClusters: 8,
		VolumeMean: 125, VolumeVariance: 0, RowColRatio: 10,
		TargetResidue: 5,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testConfig(k int) Config {
	cfg := DefaultConfig(k, 15)
	cfg.Seed = 7
	return cfg
}

func TestConfigValidation(t *testing.T) {
	ds := testDataset(t, 1)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero K", func(c *Config) { c.K = 0 }},
		{"volume gain without delta", func(c *Config) { c.MaxResidue = 0 }},
		{"negative seed probability", func(c *Config) { c.SeedProbability = -0.1 }},
		{"seed probability above one", func(c *Config) { c.SeedProbability = 1.5 }},
		{"NaN seed probability", func(c *Config) { c.SeedProbability = math.NaN() }},
		{"bad mixed probability", func(c *Config) { c.SeedProbabilities = []float64{0.5, 2} }},
		{"NaN mixed probability", func(c *Config) { c.SeedProbabilities = []float64{0.5, math.NaN()} }},
		{"negative row probability", func(c *Config) { c.SeedRowProbability = -0.1 }},
		{"row probability above one", func(c *Config) { c.SeedRowProbability = 1.5 }},
		{"NaN row probability", func(c *Config) { c.SeedRowProbability = math.NaN() }},
		{"negative column probability", func(c *Config) { c.SeedColProbability = -0.1 }},
		{"column probability above one", func(c *Config) { c.SeedColProbability = 1.5 }},
		{"NaN column probability", func(c *Config) { c.SeedColProbability = math.NaN() }},
		{"negative floor", func(c *Config) { c.Constraints.MinRows = -1 }},
		{"occupancy above one", func(c *Config) { c.Constraints.Occupancy = 1.5 }},
		{"NaN occupancy", func(c *Config) { c.Constraints.Occupancy = math.NaN() }},
		{"NaN overlap budget", func(c *Config) { c.Constraints.MaxOverlap = math.NaN() }},
		{"unknown order", func(c *Config) { c.Order = Order(99) }},
		{"unknown gain policy", func(c *Config) { c.GainPolicy = GainPolicy(99) }},
	}
	for _, c := range cases {
		cfg := testConfig(3)
		c.mut(&cfg)
		if _, err := Run(ds.Matrix, cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestRunEmptyMatrix(t *testing.T) {
	m := cluster.New(testDataset(t, 1).Matrix).Matrix() // any matrix
	_ = m
	empty, err := synth.Generate(synth.Config{Rows: 1, Cols: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(empty.Matrix.Submatrix(nil, nil), testConfig(2)); err == nil {
		t.Error("0x0 matrix accepted")
	}
}

func TestRunRecoversEmbeddedClusters(t *testing.T) {
	ds := testDataset(t, 42)
	res, err := Run(ds.Matrix, testConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	rec, prec := eval.RecallPrecision(ds.Matrix, ds.Embedded, eval.Specs(res.Clusters))
	if rec < 0.7 {
		t.Errorf("recall = %.3f, want ≥ 0.7", rec)
	}
	if prec < 0.8 {
		t.Errorf("precision = %.3f, want ≥ 0.8", prec)
	}
	if len(res.Clusters) != 10 {
		t.Errorf("clusters = %d, want K = 10", len(res.Clusters))
	}
}

func TestRunDeterministic(t *testing.T) {
	ds := testDataset(t, 2)
	cfg := testConfig(5)
	a, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgResidue != b.AvgResidue || a.Iterations != b.Iterations {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", a.AvgResidue, a.Iterations, b.AvgResidue, b.Iterations)
	}
	for c := range a.Clusters {
		sa, sb := a.Clusters[c].Spec(), b.Clusters[c].Spec()
		if len(sa.Rows) != len(sb.Rows) || len(sa.Cols) != len(sb.Cols) {
			t.Fatalf("cluster %d shape differs", c)
		}
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	ds := testDataset(t, 2)
	cfg := testConfig(5)
	a, _ := Run(ds.Matrix, cfg)
	cfg.Seed = 99
	b, _ := Run(ds.Matrix, cfg)
	if a.AvgResidue == b.AvgResidue && a.ActionsApplied == b.ActionsApplied {
		t.Log("note: different seeds produced identical outcomes (possible but unlikely)")
	}
}

func TestResultCounters(t *testing.T) {
	ds := testDataset(t, 3)
	cfg := testConfig(4)
	cfg.SeedMode = SeedRandom // force phase-2 work
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GainEvaluations <= 0 {
		t.Error("no gain evaluations recorded")
	}
	if res.Duration <= 0 {
		t.Error("no duration recorded")
	}
	if len(res.ResidueTrace) != res.Iterations+1 {
		t.Errorf("trace length %d, want iterations+1 = %d", len(res.ResidueTrace), res.Iterations+1)
	}
	if res.Iterations > cfg.MaxIterations {
		t.Errorf("iterations %d exceeded cap %d", res.Iterations, cfg.MaxIterations)
	}
}

func TestMaxIterationsCap(t *testing.T) {
	ds := testDataset(t, 4)
	cfg := testConfig(4)
	cfg.SeedMode = SeedRandom
	cfg.MaxIterations = 2
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Errorf("iterations = %d, cap was 2", res.Iterations)
	}
}

func TestSizeFloorRespected(t *testing.T) {
	ds := testDataset(t, 5)
	cfg := testConfig(6)
	cfg.Constraints.MinRows = 4
	cfg.Constraints.MinCols = 3
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Clusters {
		if c.NumRows() < 4 || c.NumCols() < 3 {
			t.Errorf("cluster %d is %dx%d, floor is 4x3", i, c.NumRows(), c.NumCols())
		}
	}
}

func TestMaxVolumeRespected(t *testing.T) {
	ds := testDataset(t, 6)
	cfg := testConfig(6)
	cfg.Constraints.MaxVolume = 120
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Clusters {
		if c.Volume() > 120 {
			t.Errorf("cluster %d volume %d exceeds ceiling 120", i, c.Volume())
		}
	}
}

func TestMaxOverlapZeroDisjoint(t *testing.T) {
	ds := testDataset(t, 7)
	cfg := testConfig(5)
	cfg.Constraints.MaxOverlap = 0
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < len(res.Clusters); a++ {
		for b := a + 1; b < len(res.Clusters); b++ {
			if ov := res.Clusters[a].Overlap(res.Clusters[b]); ov != 0 {
				t.Errorf("clusters %d and %d overlap by %d cells", a, b, ov)
			}
		}
	}
}

func TestRowCoverage(t *testing.T) {
	ds := testDataset(t, 8)
	cfg := testConfig(8)
	cfg.Constraints.RequireRowCoverage = true
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Matrix.Rows(); i++ {
		covered := false
		for _, c := range res.Clusters {
			if c.HasRow(i) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("row %d left uncovered", i)
		}
	}
}

func TestOccupancyWithMissingValues(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Rows: 300, Cols: 25, NumClusters: 5,
		VolumeMean: 120, VolumeVariance: 0, RowColRatio: 10,
		TargetResidue: 5, MissingFraction: 0.15,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(6)
	cfg.Constraints.Occupancy = 0.6
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Clusters {
		if !c.SatisfiesOccupancy(0.6) {
			t.Errorf("cluster %d violates α = 0.6", i)
		}
	}
}

// The paper-literal residue-reduction gain degenerates on noisy data:
// clusters shrink toward the size floor because the mean |residue| of
// a submatrix falls as it shrinks. This ablation pins the behaviour
// (and documents why VolumeGain is the default).
func TestResidueGainShrinks(t *testing.T) {
	ds := testDataset(t, 10)
	cfg := testConfig(5)
	cfg.GainPolicy = ResidueGain
	cfg.MaxResidue = 0 // unused under ResidueGain
	cfg.SeedMode = SeedRandom
	cfg.SeedProbability = 0.2
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	avgCols := 0
	for _, c := range res.Clusters {
		avgCols += c.NumCols()
	}
	if float64(avgCols)/float64(len(res.Clusters)) > 10 {
		t.Errorf("residue-only gain did not shrink clusters (avg cols %v)", float64(avgCols)/5)
	}
}

func TestSeedModesProduceKClusters(t *testing.T) {
	ds := testDataset(t, 13)
	for _, mode := range []SeedMode{SeedRandom, SeedAnchored, SeedAuto} {
		cfg := testConfig(7)
		cfg.SeedMode = mode
		res, err := Run(ds.Matrix, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res.Clusters) != 7 {
			t.Errorf("%v: %d clusters, want 7", mode, len(res.Clusters))
		}
	}
}

func TestMixedSeedProbabilities(t *testing.T) {
	ds := testDataset(t, 14)
	cfg := testConfig(4)
	cfg.SeedMode = SeedRandom
	cfg.SeedProbabilities = []float64{0.05, 0.1, 0.2, 0.3}
	cfg.MaxIterations = 1
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
}

func TestSignificantFilter(t *testing.T) {
	ds := testDataset(t, 15)
	m := ds.Matrix
	good := cluster.FromSpec(m, ds.Embedded[0].Rows, ds.Embedded[0].Cols)
	tiny := cluster.FromSpec(m, []int{0, 1}, []int{0, 1})
	noisy := cluster.FromSpec(m, []int{0, 5, 10, 15, 20}, []int{0, 5, 10, 15})
	kept := Significant([]*cluster.Cluster{good, tiny, noisy}, 10)
	if len(kept) != 1 || kept[0] != good {
		t.Errorf("Significant kept %d clusters, want only the embedded one", len(kept))
	}
}

func TestOrderStringAndPolicyString(t *testing.T) {
	if FixedOrder.String() != "fixed" || RandomOrder.String() != "random" || WeightedRandomOrder.String() != "weighted" {
		t.Error("order names wrong")
	}
	if VolumeGain.String() != "volume" || ResidueGain.String() != "residue" {
		t.Error("gain policy names wrong")
	}
	if SeedRandom.String() != "random" || SeedAnchored.String() != "anchored" || SeedAuto.String() != "auto" {
		t.Error("seed mode names wrong")
	}
}

func TestResidueTraceMonotoneUnderResidueGain(t *testing.T) {
	ds := testDataset(t, 16)
	cfg := testConfig(4)
	cfg.GainPolicy = ResidueGain
	cfg.SeedMode = SeedRandom
	res, err := Run(ds.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.ResidueTrace); i++ {
		if res.ResidueTrace[i] > res.ResidueTrace[i-1]+1e-9 {
			t.Fatalf("avg residue rose at improving iteration %d: %v -> %v",
				i, res.ResidueTrace[i-1], res.ResidueTrace[i])
		}
	}
}

func TestPolishNeverWorsensCost(t *testing.T) {
	ds := testDataset(t, 17)
	base := testConfig(6)
	base.Polish = false
	unpolished, err := Run(ds.Matrix, base)
	if err != nil {
		t.Fatal(err)
	}
	polishedCfg := testConfig(6)
	polishedCfg.Polish = true
	polished, err := Run(ds.Matrix, polishedCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Polish only removes members whose removal lowers the cluster's
	// cost, so the summed cost cannot be worse.
	cost := func(res *Result, delta float64) float64 {
		total := 0.0
		for _, c := range res.Clusters {
			r := c.Residue()
			reward := 0.0
			if c.NumRows() > 2 && c.NumCols() > 2 {
				reward = float64(c.Volume()) * (1 - 2/float64(c.NumRows())) * (1 - 2/float64(c.NumCols()))
			}
			total += float64(c.Volume())*r/delta - reward
		}
		return total
	}
	if cp, cu := cost(polished, 15), cost(unpolished, 15); cp > cu+math.Abs(cu)*1e-9+1e-9 {
		t.Errorf("polish worsened cost: %v > %v", cp, cu)
	}
}

func TestDensestWindow(t *testing.T) {
	xs := []float64{0, 1, 2, 50, 51, 52, 53, 100}
	center, count := densestWindow(xs, 5)
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if math.Abs(center-51.5) > 1e-9 {
		t.Fatalf("center = %v, want 51.5", center)
	}
	if _, c := densestWindow(nil, 5); c != 0 {
		t.Error("empty input should report count 0")
	}
	if _, c := densestWindow([]float64{7}, 5); c != 1 {
		t.Error("singleton should report count 1")
	}
}

func TestWeightedRandomOrderFavorsGains(t *testing.T) {
	// Build decisions with one dominant gain and measure its average
	// final position across many shuffles: it should sit in the front
	// half far more often than uniform.
	base := make([]decision, 40)
	for i := range base {
		base[i] = decision{idx: i, clusterIdx: 0, gain: float64(-i)}
	}
	// decision 0 has the max gain (0), the rest decline.
	rng := newTestRNG()
	posSum := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		ds := append([]decision(nil), base...)
		weightedRandomOrder(ds, rng)
		for p, d := range ds {
			if d.idx == 0 {
				posSum += p
				break
			}
		}
	}
	avg := float64(posSum) / trials
	if avg > 18 {
		t.Errorf("max-gain action average position %.1f, want clearly in the front half", avg)
	}
}

func TestFixedOrderStable(t *testing.T) {
	ds := []decision{{idx: 3}, {idx: 1}, {idx: 2}}
	orderDecisions(ds, FixedOrder, newTestRNG())
	if ds[0].idx != 3 || ds[1].idx != 1 || ds[2].idx != 2 {
		t.Error("fixed order permuted the decisions")
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	ds := make([]decision, 20)
	for i := range ds {
		ds[i] = decision{idx: i}
	}
	orderDecisions(ds, RandomOrder, newTestRNG())
	seen := map[int]bool{}
	for _, d := range ds {
		seen[d.idx] = true
	}
	if len(seen) != 20 {
		t.Error("random order lost decisions")
	}
}
