//go:build deltadebug

package floc

import (
	"strings"
	"testing"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// TestDeltaDebugCleanRun drives a full FLOC run with the deltadebug
// assertions recomputing every cached residue after every applied
// action. A clean run proves the incremental bookkeeping in apply,
// restore and the iteration boundary matches from-scratch
// recomputation everywhere the engine goes, not just at the states
// the unit tests happen to inspect.
func TestDeltaDebugCleanRun(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Rows: 60, Cols: 15, NumClusters: 2,
		VolumeMean: 50, VolumeVariance: 0, RowColRatio: 4,
		TargetResidue: 3,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []Order{FixedOrder, RandomOrder, WeightedRandomOrder} {
		cfg := DefaultConfig(3, 9)
		cfg.Seed = 11
		cfg.Order = order
		cfg.MaxIterations = 6
		if _, err := Run(ds.Matrix, cfg); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
	}
}

// newAssertableEngine builds a minimal engine with correctly
// initialized caches over a 3×3 matrix, for corrupting.
func newAssertableEngine(t *testing.T) *engine {
	t.Helper()
	m, err := matrix.NewFromRows([][]float64{
		{1, 2, 3},
		{2, 3, 4},
		{3, 4, 6}, // the 6 breaks perfect additivity: nonzero residue
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, 1)
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		t.Fatal(err)
	}
	e := &engine{
		m:        m,
		cfg:      &cfg,
		clusters: []*cluster.Cluster{cluster.FromSpec(m, []int{0, 1, 2}, []int{0, 1, 2})},
		residues: make([]float64, 1),
		costs:    make([]float64, 1),
		coverRow: make([]int, m.Rows()),
		coverCol: make([]int, m.Cols()),
	}
	e.w = float64(m.SpecifiedCount())
	cl := e.clusters[0]
	e.residues[0] = cl.Residue()
	e.resSum = e.residues[0]
	e.costs[0] = e.cost(e.residues[0], cl.Volume(), cl.NumRows(), cl.NumCols())
	e.costSum = e.costs[0]
	for _, i := range cl.Rows() {
		e.coverRow[i]++
	}
	for _, j := range cl.Cols() {
		e.coverCol[j]++
	}
	return e
}

// expectPanic runs f and asserts it panics with a message containing
// want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; wanted one containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not contain %q", r, want)
		}
	}()
	f()
}

// TestDeltaDebugDetectsCorruption corrupts each cached quantity in
// turn and confirms the assertion fires with a message naming it.
func TestDeltaDebugDetectsCorruption(t *testing.T) {
	e := newAssertableEngine(t)
	e.assertInvariants("test baseline") // consistent caches must pass

	t.Run("residue cache", func(t *testing.T) {
		e := newAssertableEngine(t)
		e.residues[0] += 0.25
		e.resSum += 0.25
		expectPanic(t, "engine residue cache", func() { e.assertInvariants("test") })
	})
	t.Run("residue sum", func(t *testing.T) {
		e := newAssertableEngine(t)
		e.resSum += 1
		expectPanic(t, "residue sum cache", func() { e.assertInvariants("test") })
	})
	t.Run("cost cache", func(t *testing.T) {
		e := newAssertableEngine(t)
		e.costs[0] -= 3
		e.costSum -= 3
		expectPanic(t, "engine cost cache", func() { e.assertInvariants("test") })
	})
	t.Run("coverage counts", func(t *testing.T) {
		e := newAssertableEngine(t)
		e.coverRow[1] = 5
		expectPanic(t, "coverage cache", func() { e.assertInvariants("test") })
	})
	t.Run("cluster aggregate drift", func(t *testing.T) {
		e := newAssertableEngine(t)
		// Reach inside the cluster: membership changed behind the
		// aggregates' back is exactly the corruption class the
		// analyzers guard statically.
		e.clusters[0].Matrix().Set(0, 0, 100)
		expectPanic(t, "drift", func() { e.assertInvariants("test") })
	})
}
