package floc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// warmWorkerSweep is the worker-count sweep the warm-start equivalence
// suite runs under: the ISSUE-mandated {1, 2, GOMAXPROCS}.
func warmWorkerSweep() []int {
	sweep := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 {
		sweep = append(sweep, n)
	}
	return sweep
}

// warmTestConfig is the shared configuration of the suite. Seed and
// shape are fixed so the parent, the cold rerun and the warm rerun all
// hash the same configSum. Seeding is random (the paper's phase 1),
// not anchored: anchored seeding lands planted matrices at the optimum
// before phase 2 runs, and the warm-vs-cold iteration contract needs
// cold runs that actually pay discovery iterations.
func warmTestConfig(workers int) Config {
	cfg := DefaultConfig(4, 10)
	cfg.Seed = 7
	cfg.SeedMode = SeedRandom
	cfg.Workers = workers
	return cfg
}

// warmTestMatrix generates the suite's base matrix: large enough that
// a cold random-seeded run pays several discovery iterations.
func warmTestMatrix(t testing.TB, seed int64) *matrix.Matrix {
	t.Helper()
	return plantedMissingMatrix(t, seed, 200, 18, 4, 50, 0.03)
}

// plantDelta applies a small deterministic mutation batch to m — one
// appended row built by perturbing an existing row, one cell update,
// one retraction — and returns the pre-mutation row count. This is the
// "small planted delta" of the equivalence suite: small relative to
// the matrix, exercising all three mutation kinds.
func plantDelta(t testing.TB, m *matrix.Matrix) int {
	t.Helper()
	parentRows := m.Rows()
	row := make([]float64, m.Cols())
	for j := 0; j < m.Cols(); j++ {
		row[j] = m.Get(5, j) + 0.01
	}
	if err := m.AppendRows([][]float64{row}); err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	update := matrix.Cell{Row: 2, Col: 3, Value: m.Get(2, 3) + 0.05}
	if math.IsNaN(update.Value) {
		update.Value = 1.5 // perturbing a missing entry: give it a value
	}
	if err := m.UpdateCells([]matrix.Cell{update}); err != nil {
		t.Fatalf("UpdateCells: %v", err)
	}
	if err := m.MarkMissing([]matrix.CellRef{{Row: 8, Col: 1}}); err != nil {
		t.Fatalf("MarkMissing: %v", err)
	}
	return parentRows
}

// warmLeg is one workload of the equivalence suite: a matrix and its
// configuration at a worker count.
type warmLeg struct {
	name string
	m    *matrix.Matrix
	cfg  func(workers int) Config
}

// seedConvergedLegs are the equivalence suite's workloads that converge
// in seeding, so their final checkpoint is the seed checkpoint:
// anchored seeding on a reduced yeast stand-in, and a 5%-missing
// planted matrix under an occupancy threshold α > 0 — the shape of the
// served ratings jobs, whose seeding state is not boundary-normalized.
func seedConvergedLegs(t testing.TB) []warmLeg {
	t.Helper()
	ds, err := synth.Yeast(synth.YeastConfig{
		Genes: 500, Conditions: 17, Modules: 6,
		GenesPerModule: 40, ConditionsPerModule: 8,
		NoiseResidue: 8,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return []warmLeg{
		{"yeast-anchored", ds.Matrix, func(workers int) Config {
			cfg := DefaultConfig(12, 20)
			cfg.Seed = 3
			cfg.SeedMode = SeedAnchored
			cfg.Workers = workers
			return cfg
		}},
		{"missing-occupancy", plantedMissingMatrix(t, 1, 200, 18, 4, 50, 0.05), func(workers int) Config {
			cfg := warmTestConfig(workers)
			cfg.SeedMode = SeedAnchored
			cfg.Constraints.Occupancy = 0.6
			return cfg
		}},
	}
}

// TestWarmStartEmptyDeltaBitIdentical is the deltastream equivalence
// guarantee: a warm start whose matrix has not changed since the
// parent's final checkpoint produces a bit-identical fingerprint to
// the cold run — every residue ulp, counter, trace entry and
// membership — at every worker count in the sweep. The unnamed leg
// iterates under random seeding; the seed-converged legs start from
// the seed checkpoint.
func TestWarmStartEmptyDeltaBitIdentical(t *testing.T) {
	legs := append(seedConvergedLegs(t), warmLeg{"", warmTestMatrix(t, 1), warmTestConfig})
	for _, leg := range legs {
		wantFp := ""
		for _, w := range warmWorkerSweep() {
			name := fmt.Sprintf("workers=%d", w)
			if leg.name != "" {
				name = leg.name + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				cfg := leg.cfg(w)
				cold, err := RunWithOptions(context.Background(), leg.m, cfg, RunOptions{KeepFinalCheckpoint: true})
				if err != nil {
					t.Fatal(err)
				}
				if seeded := len(cold.FinalCheckpoint.Clusters) == 0; seeded != (cold.Iterations == 0) {
					t.Fatalf("cold run took %d iterations, final checkpoint holds %d cluster states",
						cold.Iterations, len(cold.FinalCheckpoint.Clusters))
				} else if seeded != (leg.name != "") {
					t.Fatalf("cold run took %d iterations; the leg no longer exercises the checkpoint it is for", cold.Iterations)
				}
				coldFp := fingerprint(cold)
				if wantFp == "" {
					wantFp = coldFp
				} else if coldFp != wantFp {
					t.Fatalf("cold fingerprint diverged across worker counts")
				}
				warm, err := RunWithOptions(context.Background(), leg.m, cfg, RunOptions{
					WarmStart: &WarmStart{Checkpoint: cold.FinalCheckpoint},
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(warm); got != coldFp {
					t.Fatalf("warm start with empty delta diverged from cold run:\n--- cold\n%s--- warm\n%s", coldFp, got)
				}
			})
		}
	}
}

// TestWarmStartSeedCheckpointDirtyDelta: a dirty-delta start from a
// seed checkpoint is the cold run under the parent's seed on the
// mutated head, bit for bit.
func TestWarmStartSeedCheckpointDirtyDelta(t *testing.T) {
	for _, leg := range seedConvergedLegs(t) {
		t.Run(leg.name, func(t *testing.T) {
			cfg := leg.cfg(1)
			applyEnvWorkers(t, &cfg)
			parent, err := RunWithOptions(context.Background(), leg.m, cfg, RunOptions{KeepFinalCheckpoint: true})
			if err != nil {
				t.Fatal(err)
			}
			ck := parent.FinalCheckpoint
			if len(ck.Clusters) != 0 {
				t.Fatalf("parent took %d iterations; want a seed checkpoint", parent.Iterations)
			}
			head := leg.m.Clone()
			parentRows := plantDelta(t, head)
			cold, err := Run(head, cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := RunWithOptions(context.Background(), head, cfg, RunOptions{
				WarmStart: &WarmStart{Checkpoint: ck, ParentRows: parentRows},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fingerprint(warm), fingerprint(cold); got != want {
				t.Fatalf("warm start from a seed checkpoint differs from the cold run on the head:\n--- cold\n%s--- warm\n%s", want, got)
			}
		})
	}
}

// TestWarmStartChainFromBoundaryZero: a warm child that converges at
// its own boundary 0 keeps that boundary, with the re-anchored cluster
// states, as its final checkpoint, and an empty-delta start from it
// reproduces the child bit for bit — so a chain of reclusters never
// loses its handle.
func TestWarmStartChainFromBoundaryZero(t *testing.T) {
	base := warmTestMatrix(t, 1)
	cfg := warmTestConfig(1)
	applyEnvWorkers(t, &cfg)
	parent, err := RunWithOptions(context.Background(), base, cfg, RunOptions{KeepFinalCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	head := base.Clone()
	if err := head.MarkMissing([]matrix.CellRef{{Row: 8, Col: 1}}); err != nil {
		t.Fatal(err)
	}
	child, err := RunWithOptions(context.Background(), head, cfg, RunOptions{
		WarmStart:           &WarmStart{Checkpoint: parent.FinalCheckpoint},
		KeepFinalCheckpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ck := child.FinalCheckpoint
	if child.Iterations != 0 || ck.Iterations != 0 || len(ck.Clusters) != cfg.K || ck.MatrixSum != matrixSum(head) {
		t.Fatalf("child took %d iterations, final checkpoint at %d with %d cluster states; want its own boundary 0 with %d",
			child.Iterations, ck.Iterations, len(ck.Clusters), cfg.K)
	}
	again, err := RunWithOptions(context.Background(), head, cfg, RunOptions{WarmStart: &WarmStart{Checkpoint: ck}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(again), fingerprint(child); got != want {
		t.Fatalf("chained empty-delta start diverged from the child:\n--- child\n%s--- chained\n%s", want, got)
	}
}

// TestWarmStartPlantedDeltaFewerIterations pins the other half of the
// contract: after a small planted delta, warm-starting from the
// parent's final checkpoint re-converges in strictly fewer improving
// iterations than a cold run on the same mutated matrix, and the warm
// trajectory itself is bit-identical at every worker count.
func TestWarmStartPlantedDeltaFewerIterations(t *testing.T) {
	base := warmTestMatrix(t, 1)
	parent, err := RunWithOptions(context.Background(), base, warmTestConfig(1), RunOptions{KeepFinalCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	ck := parent.FinalCheckpoint

	mutated := base.Clone()
	parentRows := plantDelta(t, mutated)

	warmFp := ""
	for _, w := range warmWorkerSweep() {
		w := w
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			cfg := warmTestConfig(w)
			cold, err := Run(mutated, cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := RunWithOptions(context.Background(), mutated, cfg, RunOptions{
				WarmStart: &WarmStart{Checkpoint: ck, ParentRows: parentRows},
			})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Iterations >= cold.Iterations {
				t.Fatalf("warm start took %d iterations, cold run %d — warm must be strictly fewer",
					warm.Iterations, cold.Iterations)
			}
			fp := fingerprint(warm)
			if warmFp == "" {
				warmFp = fp
			} else if fp != warmFp {
				t.Fatalf("warm trajectory diverged across worker counts")
			}
		})
	}
}

// TestWarmStartBoundedIterationsProperty is the bounded-iteration
// property test across seeds: for every generated base matrix and its
// planted delta, the warm restart never needs more improving
// iterations than the cold run on the mutated matrix, and stays under
// a small absolute budget — re-convergence after a small delta costs a
// few iterations, not a full optimization.
func TestWarmStartBoundedIterationsProperty(t *testing.T) {
	const warmBudget = 8
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := warmTestMatrix(t, seed)
			cfg := warmTestConfig(1)
			applyEnvWorkers(t, &cfg)
			parent, err := RunWithOptions(context.Background(), base, cfg, RunOptions{KeepFinalCheckpoint: true})
			if err != nil {
				t.Fatal(err)
			}
			mutated := base.Clone()
			parentRows := plantDelta(t, mutated)
			cold, err := Run(mutated, cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := RunWithOptions(context.Background(), mutated, cfg, RunOptions{
				WarmStart: &WarmStart{Checkpoint: parent.FinalCheckpoint, ParentRows: parentRows},
			})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Iterations > cold.Iterations {
				t.Errorf("warm start took %d iterations, cold run %d", warm.Iterations, cold.Iterations)
			}
			if warm.Iterations > warmBudget {
				t.Errorf("warm start took %d iterations, budget %d", warm.Iterations, warmBudget)
			}
		})
	}
}

// TestWarmStartValidation exercises the refusal paths: mismatched
// configuration, memberships beyond the claimed parent rows, bogus
// ParentRows (with a seed checkpoint too), a missing checkpoint, and
// the Resume/WarmStart mutual exclusion.
func TestWarmStartValidation(t *testing.T) {
	m := warmTestMatrix(t, 2)
	cfg := warmTestConfig(1)
	parent, err := RunWithOptions(context.Background(), m, cfg, RunOptions{KeepFinalCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	ck := parent.FinalCheckpoint
	grown := m.Clone()
	if err := grown.AppendRows([][]float64{make([]float64, m.Cols())}); err != nil {
		t.Fatal(err)
	}

	if _, err := RunWithOptions(context.Background(), grown, cfg, RunOptions{
		Resume:    ck,
		WarmStart: &WarmStart{Checkpoint: ck},
	}); err == nil {
		t.Error("Resume+WarmStart accepted")
	}
	if _, err := RunWithOptions(context.Background(), grown, cfg, RunOptions{
		WarmStart: &WarmStart{},
	}); err == nil {
		t.Error("WarmStart without checkpoint accepted")
	}
	badCfg := cfg
	badCfg.Seed = cfg.Seed + 1
	if _, err := RunWithOptions(context.Background(), grown, badCfg, RunOptions{
		WarmStart: &WarmStart{Checkpoint: ck},
	}); err == nil {
		t.Error("warm start under a different seed accepted")
	}
	if _, err := RunWithOptions(context.Background(), grown, cfg, RunOptions{
		WarmStart: &WarmStart{Checkpoint: ck, ParentRows: grown.Rows() + 5},
	}); err == nil {
		t.Error("ParentRows beyond the matrix accepted")
	}
	seedCk := seedCheckpoint(t, grown, cfg)
	if _, err := RunWithOptions(context.Background(), grown, cfg, RunOptions{
		WarmStart: &WarmStart{Checkpoint: seedCk, ParentRows: grown.Rows() + 1},
	}); err == nil {
		t.Error("ParentRows beyond the matrix accepted with a seed checkpoint")
	}
	// Claiming fewer parent rows than the checkpoint's memberships
	// reference must be rejected: the memberships would dangle.
	if _, err := RunWithOptions(context.Background(), grown, cfg, RunOptions{
		WarmStart: &WarmStart{Checkpoint: ck, ParentRows: 1},
	}); err == nil {
		t.Error("ParentRows below the checkpoint's row references accepted")
	}
}
