package floc

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"deltacluster/internal/cluster"
	"deltacluster/internal/cpu"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
	"deltacluster/internal/synth"
)

func newTestRNG() *stats.RNG { return stats.NewRNG(12345) }

// envWorkers reads the FLOC_WORKERS environment variable, the knob CI
// uses to run the whole floc suite at a fixed decide-phase worker
// count (the -race matrix leg sweeps 1, 2 and 8). It returns 0 when
// the variable is unset, which callers treat as "no override".
func envWorkers(t testing.TB) int {
	t.Helper()
	v := os.Getenv("FLOC_WORKERS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("FLOC_WORKERS = %q, want a positive integer", v)
	}
	return n
}

// applyEnvWorkers overrides cfg.Workers from FLOC_WORKERS when set, so
// every test that builds a config through it runs under the CI matrix
// leg's worker count.
func applyEnvWorkers(t testing.TB, cfg *Config) {
	t.Helper()
	if w := envWorkers(t); w > 0 {
		cfg.Workers = w
	}
}

// plantedMissingMatrix generates a matrix with embedded δ-clusters and
// then knocks out missingFrac of its entries with a seeded RNG — the
// randomized inputs the differential harness sweeps. Equal arguments
// yield bit-identical matrices.
func plantedMissingMatrix(t testing.TB, seed int64, rows, cols, clusters, volume int, missingFrac float64) *matrix.Matrix {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Rows: rows, Cols: cols, NumClusters: clusters,
		VolumeMean: float64(volume), VolumeVariance: 0, RowColRatio: 4,
		TargetResidue: 3,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Matrix
	if missingFrac > 0 {
		rng := stats.NewRNG(seed * 31)
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if rng.Bool(missingFrac) {
					m.SetMissing(i, j)
				}
			}
		}
	}
	return m
}

// noiseMatrix generates a structure-free matrix (uniform noise plus
// missing values), the adversarial end of the sweep: every gain is
// marginal, so tie-breaking and blocking paths get exercised hard.
func noiseMatrix(t testing.TB, seed int64, rows, cols int, missingFrac float64) *matrix.Matrix {
	t.Helper()
	rng := stats.NewRNG(seed)
	data := make([][]float64, rows)
	for i := range data {
		row := make([]float64, cols)
		for j := range row {
			if rng.Bool(missingFrac) {
				row[j] = math.NaN()
			} else {
				row[j] = rng.Uniform(0, 10)
			}
		}
		data[i] = row
	}
	m, err := matrix.NewFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newBareEngine builds an engine over m with the given cluster
// membership and a validated cfg, initializing the guarded caches the
// same way startEngine does. It lets unit tests probe evalAction and
// violatesToggled against hand-picked states without running phase 1.
func newBareEngine(t *testing.T, m *matrix.Matrix, cfg Config, specs []cluster.Spec) *engine {
	t.Helper()
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		t.Fatal(err)
	}
	if len(specs) != cfg.K {
		t.Fatalf("newBareEngine: %d cluster specs for K = %d", len(specs), cfg.K)
	}
	e := &engine{
		m:        m,
		cfg:      &cfg,
		rng:      stats.NewRNG(cfg.Seed),
		coverRow: make([]int, m.Rows()),
		coverCol: make([]int, m.Cols()),
	}
	e.w = float64(m.SpecifiedCount())
	e.clusters = make([]*cluster.Cluster, cfg.K)
	e.residues = make([]float64, cfg.K)
	e.costs = make([]float64, cfg.K)
	for c, spec := range specs {
		cl := cluster.FromSpec(m, spec.Rows, spec.Cols)
		cl.EnablePack()
		e.clusters[c] = cl
		e.residues[c] = cl.Residue()
		e.resSum += e.residues[c]
		e.costs[c] = e.cost(e.residues[c], cl.Volume(), cl.NumRows(), cl.NumCols())
		e.costSum += e.costs[c]
		for _, i := range cl.Rows() {
			e.coverRow[i]++
		}
		for _, j := range cl.Cols() {
			e.coverCol[j]++
		}
	}
	return e
}

// clusterBits fingerprints a cluster's exact state: membership in
// internal order plus the bits of its residue and of its mean squared
// residue, which tells apart states that tie on the residue. Two
// clusters with equal clusterBits are operationally indistinguishable.
func clusterBits(cl *cluster.Cluster) string {
	return fmt.Sprintf("rows=%v cols=%v vol=%d arith=%016x sq=%016x",
		cl.OrderedRows(), cl.OrderedCols(), cl.Volume(),
		math.Float64bits(cl.Residue()),
		math.Float64bits(cl.MeanSquaredResidue()))
}

// vectorPaths lists the seeding kernels' paths a test can run here:
// the Go loops, and the AVX2 kernels where the CPU has them.
func vectorPaths() []bool {
	if cpu.AVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}
