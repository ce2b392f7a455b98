package floc

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
)

// The differential harness: the parallel decide phase must be
// bit-identical to the serial engine — same fingerprints, same
// residue traces, same checkpoint bytes at every iteration boundary,
// same OnProgress observations — for every worker count, matrix,
// seeding mode, gain policy and action order. The sweep below is the
// proof obligation behind Config.Workers' documentation; run it under
// -race to also prove the sharding shares nothing mutable.

// runCapture is everything the determinism guarantee covers about one
// run: the result fingerprint, the marshalled checkpoint at every
// improving-iteration boundary, and the progress observations.
type runCapture struct {
	fp       string
	ckpts    [][]byte
	progress []Progress
}

// captureRun executes a run recording every externally observable
// determinism artifact.
func captureRun(t *testing.T, m *matrix.Matrix, cfg Config) runCapture {
	t.Helper()
	var cap runCapture
	opts := RunOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *Checkpoint) error {
			b, err := ck.MarshalBinary()
			if err != nil {
				return err
			}
			cap.ckpts = append(cap.ckpts, b)
			return nil
		},
		OnProgress: func(p Progress) { cap.progress = append(cap.progress, p) },
	}
	res, err := RunWithOptions(t.Context(), m, cfg, opts)
	if err != nil {
		t.Fatalf("run (workers=%d): %v", cfg.Workers, err)
	}
	cap.fp = fingerprint(res)
	return cap
}

// diffWorkerCounts returns the parallel worker counts the harness
// compares against the serial reference: the fixed sweep {2, 3, 7},
// GOMAXPROCS (the production default), and the CI matrix leg's
// FLOC_WORKERS override when set.
func diffWorkerCounts(t *testing.T) []int {
	t.Helper()
	counts := []int{2, 3, 7}
	seen := map[int]bool{1: true, 2: true, 3: true, 7: true}
	if n := runtime.GOMAXPROCS(0); !seen[n] {
		counts = append(counts, n)
		seen[n] = true
	}
	if n := envWorkers(t); n > 0 && !seen[n] {
		counts = append(counts, n)
	}
	return counts
}

// assertCapturesEqual fails with a precise location when any artifact
// of a parallel run diverges from the serial reference.
func assertCapturesEqual(t *testing.T, serial, par runCapture, workers int) {
	t.Helper()
	if par.fp != serial.fp {
		t.Fatalf("workers=%d: result fingerprint diverged from serial\n--- serial\n%s--- workers=%d\n%s",
			workers, serial.fp, workers, par.fp)
	}
	if len(par.progress) != len(serial.progress) {
		t.Fatalf("workers=%d: %d progress observations, serial made %d",
			workers, len(par.progress), len(serial.progress))
	}
	for i := range par.progress {
		if par.progress[i] != serial.progress[i] {
			t.Fatalf("workers=%d: progress[%d] = %+v, serial %+v",
				workers, i, par.progress[i], serial.progress[i])
		}
	}
	if len(par.ckpts) != len(serial.ckpts) {
		t.Fatalf("workers=%d: %d checkpoints, serial wrote %d",
			workers, len(par.ckpts), len(serial.ckpts))
	}
	for i := range par.ckpts {
		if !bytes.Equal(par.ckpts[i], serial.ckpts[i]) {
			t.Fatalf("workers=%d: checkpoint bytes at boundary %d diverged from serial", workers, i+1)
		}
	}
}

// differentialCase is one cell of the sweep.
type differentialCase struct {
	name string
	m    func(t *testing.T) *matrix.Matrix
	cfg  func() Config
}

// differentialCases spans the engine's behavioural space: planted
// structure vs pure noise, dense vs missing-ridden data, random,
// anchored and mixed per-cluster seeding, both gain policies, exact
// and approximate gains, and the blocking constraints (occupancy,
// volume ceiling, overlap budget). Every case runs under all three
// action orders, and every case is tuned to need several improving
// iterations — a run that converges at the seed exercises exactly one
// decide phase and proves next to nothing.
func differentialCases() []differentialCase {
	return []differentialCase{
		{
			name: "planted/dense/random-seeding",
			m: func(t *testing.T) *matrix.Matrix {
				return plantedMissingMatrix(t, 42, 120, 18, 3, 70, 0)
			},
			cfg: func() Config {
				cfg := DefaultConfig(3, 10)
				cfg.SeedMode = SeedRandom
				return cfg
			},
		},
		{
			name: "planted/missing/random-seeding",
			m: func(t *testing.T) *matrix.Matrix {
				return plantedMissingMatrix(t, 7, 100, 15, 3, 60, 0.12)
			},
			cfg: func() Config {
				cfg := DefaultConfig(3, 8)
				cfg.SeedMode = SeedRandom
				return cfg
			},
		},
		{
			name: "planted/missing/mixed-seeding",
			m: func(t *testing.T) *matrix.Matrix {
				return plantedMissingMatrix(t, 11, 100, 15, 2, 55, 0.08)
			},
			cfg: func() Config {
				cfg := DefaultConfig(3, 8)
				cfg.SeedMode = SeedRandom
				cfg.SeedProbabilities = []float64{0.3, 0.1, 0.05}
				return cfg
			},
		},
		{
			name: "noise/missing/anchored-seeding",
			m: func(t *testing.T) *matrix.Matrix {
				return noiseMatrix(t, 9, 70, 13, 0.1)
			},
			cfg: func() Config {
				cfg := DefaultConfig(3, 7)
				cfg.SeedMode = SeedAnchored
				return cfg
			},
		},
		{
			name: "noise/missing/residue-gain",
			m: func(t *testing.T) *matrix.Matrix {
				return noiseMatrix(t, 5, 50, 12, 0.15)
			},
			cfg: func() Config {
				cfg := DefaultConfig(2, 0)
				cfg.GainPolicy = ResidueGain
				cfg.SeedMode = SeedRandom
				cfg.SeedProbability = 0.4
				return cfg
			},
		},
		{
			name: "planted/missing/approximate-gain",
			m: func(t *testing.T) *matrix.Matrix {
				return plantedMissingMatrix(t, 13, 90, 14, 3, 55, 0.1)
			},
			cfg: func() Config {
				cfg := DefaultConfig(3, 8)
				cfg.SeedMode = SeedRandom
				cfg.ApproximateGain = true
				return cfg
			},
		},
		{
			name: "noise/missing/constrained",
			m: func(t *testing.T) *matrix.Matrix {
				return noiseMatrix(t, 17, 60, 12, 0.15)
			},
			cfg: func() Config {
				cfg := DefaultConfig(3, 9)
				cfg.SeedMode = SeedRandom
				cfg.Constraints.Occupancy = 0.5
				cfg.Constraints.MaxVolume = 120
				cfg.Constraints.MaxOverlap = 0.5
				return cfg
			},
		},
	}
}

// TestParallelDecideDifferential is the sweep: serial reference vs
// every worker count, across matrices (missing values included),
// seeding modes, gain policies, constraints and all three action
// orders, asserting identical fingerprints, progress traces and
// checkpoint bytes at every iteration boundary.
func TestParallelDecideDifferential(t *testing.T) {
	for _, tc := range differentialCases() {
		for _, order := range []Order{FixedOrder, RandomOrder, WeightedRandomOrder} {
			tc, order := tc, order
			t.Run(fmt.Sprintf("%s/order=%v", tc.name, order), func(t *testing.T) {
				t.Parallel()
				m := tc.m(t)
				cfg := tc.cfg()
				cfg.Order = order
				cfg.Workers = 1
				// A run that converges at its seed exercises exactly one
				// decide phase; scan a few seeds (deterministically) for
				// one that iterates, so every cell compares real
				// multi-iteration trajectories.
				var serial runCapture
				for seed := int64(71); ; seed++ {
					if seed == 81 {
						t.Fatalf("no seed in [71, 80] produced an improving iteration; the case proves nothing")
					}
					cfg.Seed = seed
					serial = captureRun(t, m, cfg)
					if len(serial.ckpts) > 0 {
						break
					}
				}
				for _, w := range diffWorkerCounts(t) {
					cfg.Workers = w
					assertCapturesEqual(t, serial, captureRun(t, m, cfg), w)
				}
			})
		}
	}
}

// TestParallelResumeFromCheckpoint proves worker counts and
// checkpoints compose: a checkpoint cut mid-run at one worker count
// resumes at any other and still lands on the uninterrupted serial
// run's exact fingerprint. (Workers is excluded from ConfigSum for
// exactly this reason.)
func TestParallelResumeFromCheckpoint(t *testing.T) {
	m := plantedMissingMatrix(t, 7, 100, 15, 3, 60, 0.12)
	cfg := DefaultConfig(3, 8)
	cfg.SeedMode = SeedRandom
	cfg.Seed = 9

	cfg.Workers = 1
	serial := captureRun(t, m, cfg)
	if len(serial.ckpts) < 2 {
		t.Fatalf("run wrote %d checkpoints; need ≥ 2 for a mid-run resume", len(serial.ckpts))
	}

	// Cut points: first and middle boundary, each written by a
	// different worker count than it resumes under.
	for _, tc := range []struct {
		name           string
		writer, reader int
		boundary       int
	}{
		{"parallel-writes/serial-resumes", 3, 1, len(serial.ckpts) / 2},
		{"serial-writes/parallel-resumes", 1, 7, len(serial.ckpts) / 2},
		{"parallel-writes/parallel-resumes", 2, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg.Workers = tc.writer
			writer := captureRun(t, m, cfg)
			ck := new(Checkpoint)
			if err := ck.UnmarshalBinary(writer.ckpts[tc.boundary]); err != nil {
				t.Fatal(err)
			}
			cfg.Workers = tc.reader
			res, err := RunWithOptions(t.Context(), m, cfg, RunOptions{Resume: ck})
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(res); got != serial.fp {
				t.Fatalf("resume at workers=%d from a workers=%d checkpoint diverged from the uninterrupted serial run\n--- serial\n%s--- resumed\n%s",
					tc.reader, tc.writer, serial.fp, got)
			}
		})
	}
}

// TestDecideAllMatchesSerialLoop pins the merge order at the unit
// level: the sharded decideAll must produce the serial loop's exact
// decision slice — same items at same positions, same gain bits, same
// chosen clusters — on a live mid-optimization engine state.
func TestDecideAllMatchesSerialLoop(t *testing.T) {
	m := plantedMissingMatrix(t, 3, 50, 11, 2, 40, 0.1)
	cfg := DefaultConfig(3, 8)
	cfg.Seed = 4
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		t.Fatal(err)
	}
	e := newEngine(m, &cfg)

	e.cfg.Workers = 1
	// decideAll returns engine-owned scratch that the next call
	// overwrites, so the serial result must be copied to survive the
	// sharded calls below.
	want := append([]decision(nil), e.decideAll()...)
	wantEvals := e.gainEvals
	for _, w := range []int{2, 3, 7, 50 + 11, 1000} {
		e.gainEvals = 0
		e.cfg.Workers = w
		got := e.decideAll()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d decisions, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: decision[%d] = %+v, serial %+v", w, i, got[i], want[i])
			}
		}
		if e.gainEvals != wantEvals {
			t.Fatalf("workers=%d: %d gain evaluations, serial made %d", w, e.gainEvals, wantEvals)
		}
	}
}

// TestDecideAllLeavesStateUntouched proves the decide phase as a
// whole is read-only: after decideAll at any worker count, every
// cluster's exact bits — membership, internal order, aggregates —
// are what they were before the call.
func TestDecideAllLeavesStateUntouched(t *testing.T) {
	m := plantedMissingMatrix(t, 19, 40, 10, 2, 36, 0.15)
	cfg := DefaultConfig(2, 8)
	cfg.Seed = 6
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		t.Fatal(err)
	}
	e := newEngine(m, &cfg)
	before := make([]string, len(e.clusters))
	for c, cl := range e.clusters {
		before[c] = clusterBits(cl)
	}
	for _, w := range []int{1, 2, 5} {
		e.cfg.Workers = w
		e.decideAll()
		for c, cl := range e.clusters {
			if got := clusterBits(cl); got != before[c] {
				t.Fatalf("workers=%d: decideAll disturbed cluster %d\nbefore %s\nafter  %s", w, c, before[c], got)
			}
		}
	}
}

// TestWorkersValidation pins the Config.Workers contract: negative
// rejected, zero defaulted to GOMAXPROCS, explicit values preserved.
func TestWorkersValidation(t *testing.T) {
	m := noiseMatrix(t, 1, 8, 6, 0)
	bad := DefaultConfig(2, 5)
	bad.Workers = -1
	if _, err := Run(m, bad); err == nil {
		t.Fatal("Workers = -1 accepted, want a validation error")
	}

	cfg := DefaultConfig(2, 5)
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); cfg.Workers != want {
		t.Fatalf("zero Workers normalized to %d, want GOMAXPROCS = %d", cfg.Workers, want)
	}

	cfg = DefaultConfig(2, 5)
	cfg.Workers = 3
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 3 {
		t.Fatalf("explicit Workers rewritten to %d, want 3", cfg.Workers)
	}
}

// TestDecideRangeMatchesItemMajorLoop pins the cluster-major decide
// against the item-major loop it replaced: for every item, evalAction
// over the clusters in ascending order, keeping strictly greater
// gains. Clusters 0 and 1 are identical, so each item's gains tie
// across them and the lower index must win. Every gain tier and every
// toggled-state constraint runs through the same comparison; under the
// exact tier the row insertions take the batched path.
func TestDecideRangeMatchesItemMajorLoop(t *testing.T) {
	m := plantedMissingMatrix(t, 5, 40, 12, 2, 40, 0.1)
	specs := []cluster.Spec{
		{Rows: []int{0, 1, 2, 3, 4, 5, 6}, Cols: []int{0, 1, 2, 3}},
		{Rows: []int{0, 1, 2, 3, 4, 5, 6}, Cols: []int{0, 1, 2, 3}},
		{Rows: []int{10, 12, 14, 16, 18, 20}, Cols: []int{3, 4, 5, 6, 7, 8}},
	}
	for _, tc := range []struct {
		name   string
		mode   GainMode
		approx bool
		mean   cluster.ResidueMean
		cons   Constraints
	}{
		{name: "exact", cons: Constraints{MinRows: 2, MinCols: 2, MaxOverlap: -1}},
		{name: "exact-squared", mean: cluster.SquaredMean, cons: Constraints{MinRows: 2, MinCols: 2, MaxOverlap: -1}},
		{name: "exact-constrained", cons: Constraints{MinRows: 2, MinCols: 2, MaxOverlap: 1, Occupancy: 0.5, MaxVolume: 40}},
		{name: "incremental", mode: GainIncremental, cons: Constraints{MinRows: 2, MinCols: 2, MaxOverlap: -1}},
		{name: "approximate", approx: true, cons: Constraints{MinRows: 2, MinCols: 2, MaxOverlap: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(3, 8)
			cfg.GainMode = tc.mode
			cfg.ApproximateGain = tc.approx
			cfg.ResidueMean = tc.mean
			cfg.Constraints = tc.cons
			cfg.Workers = 1
			e := newBareEngine(t, m, cfg, specs)
			if tc.mode == GainIncremental {
				for _, cl := range e.clusters {
					cl.EnableResidueAggregates(tc.mean)
				}
			}
			items := m.Rows() + m.Cols()
			want := make([]decision, items)
			ties := 0
			for it := range want {
				isRow, idx := e.itemOf(it)
				best := decision{isRow: isRow, idx: idx, clusterIdx: -1, gain: negInf}
				for c := range e.clusters {
					if g := e.evalAction(isRow, idx, c); g > best.gain {
						best.gain, best.clusterIdx = g, c
					}
				}
				if best.clusterIdx == 0 {
					ties++
				}
				want[it] = best
			}
			if ties == 0 {
				t.Fatal("no item chose the tied cluster pair; the tie-break is untested")
			}
			wantEvals := e.gainEvals
			e.gainEvals = 0
			got := e.decideAll()
			for it := range want {
				if got[it] != want[it] {
					t.Fatalf("decision[%d] = %+v, item-major loop %+v", it, got[it], want[it])
				}
			}
			if e.gainEvals != wantEvals {
				t.Fatalf("%d gain evaluations, item-major loop made %d", e.gainEvals, wantEvals)
			}
		})
	}
}
