package floc

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// resilienceTestMatrix generates the small synthetic workload the
// robustness tests (context, checkpoint, chaos) run FLOC over. Same
// shape as the determinism fingerprint test, so runs take several
// improving iterations.
func resilienceTestMatrix(t testing.TB) *matrix.Matrix {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Rows: 120, Cols: 18, NumClusters: 3,
		VolumeMean: 70, VolumeVariance: 0, RowColRatio: 5,
		TargetResidue: 4,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Matrix
}

func resilienceTestConfig(t testing.TB) Config {
	cfg := DefaultConfig(3, 10)
	cfg.Seed = 7
	// Random seeding leaves phase 2 real work to do (8 improving
	// iterations on this workload), so there are boundaries to
	// checkpoint, cancel at and crash between; anchored seeding would
	// converge before the first iteration.
	cfg.SeedMode = SeedRandom
	// The chaos and resilience drills run under the CI FLOC_WORKERS
	// matrix too: fault injection and crash/resume must hold at any
	// decide-phase worker count.
	applyEnvWorkers(t, &cfg)
	return cfg
}

// captureCheckpoints runs to convergence collecting the checkpoint of
// every iteration boundary.
func captureCheckpoints(t testing.TB, m *matrix.Matrix, cfg Config) (*Result, []*Checkpoint) {
	t.Helper()
	var cks []*Checkpoint
	res, err := RunWithOptions(context.Background(), m, cfg, RunOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *Checkpoint) error {
			cks = append(cks, ck)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("run completed without a single improving iteration; workload too easy for checkpoint tests")
	}
	return res, cks
}

func TestCheckpointBinaryRoundTrip(t *testing.T) {
	m := resilienceTestMatrix(t)
	_, cks := captureCheckpoints(t, m, resilienceTestConfig(t))
	ck := cks[len(cks)-1]

	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Checkpoint
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, &got) {
		t.Fatalf("roundtrip mismatch:\nwrote %+v\nread  %+v", ck, &got)
	}

	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, again) {
		t.Fatal("encoding is not deterministic: re-encoding produced different bytes")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	m := resilienceTestMatrix(t)
	_, cks := captureCheckpoints(t, m, resilienceTestConfig(t))
	ck := cks[0]

	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := WriteCheckpointFile(path, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: stat err = %v", err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("file roundtrip mismatch:\nwrote %+v\nread  %+v", ck, got)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	m := resilienceTestMatrix(t)
	_, cks := captureCheckpoints(t, m, resilienceTestConfig(t))
	data, err := cks[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, "bad magic"},
		{"unknown version", func(d []byte) []byte { d[4] = 99; return d }, "version"},
		{"flipped payload byte", func(d []byte) []byte { d[20] ^= 1; return d }, "checksum"},
		{"flipped checksum byte", func(d []byte) []byte { d[len(d)-1] ^= 1; return d }, "checksum"},
		{"truncated tail", func(d []byte) []byte { return d[:len(d)-10] }, "truncated"},
		{"truncated header", func(d []byte) []byte { return d[:10] }, "bad magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), data...))
			var ck Checkpoint
			err := ck.UnmarshalBinary(mutated)
			if err == nil {
				t.Fatal("corrupted checkpoint was accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestCheckpointDecodeShapeRules pins what a decoded checkpoint may
// hold: a trace entry per boundary, and no cluster states only at
// boundary 0 — the seed checkpoint, which round-trips like any other.
func TestCheckpointDecodeShapeRules(t *testing.T) {
	m := resilienceTestMatrix(t)
	cfg := resilienceTestConfig(t)
	seed := seedCheckpoint(t, m, cfg)
	_, cks := captureCheckpoints(t, m, cfg)
	mid := cks[0]

	data, err := EncodeCheckpoint(seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("seed checkpoint rejected: %v", err)
	}
	if !reflect.DeepEqual(got, &Checkpoint{
		Seed: seed.Seed, Draws: seed.Draws, Actions: seed.Actions, GainEvals: seed.GainEvals,
		Trace: seed.Trace, Clusters: []ClusterState{}, ConfigSum: seed.ConfigSum,
	}) {
		t.Fatalf("seed checkpoint round trip: wrote %+v, read %+v", seed, got)
	}

	bad := map[string]*Checkpoint{}
	noStates := *mid
	noStates.Clusters = nil
	bad["no cluster states past boundary 0"] = &noStates
	shortTrace := *mid
	shortTrace.Trace = shortTrace.Trace[:len(shortTrace.Trace)-1]
	bad["trace one short"] = &shortTrace
	longSeed := *seed
	longSeed.Trace = append([]float64{1}, seed.Trace...)
	bad["seed checkpoint with two trace entries"] = &longSeed
	for name, ck := range bad {
		data, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// A checkpoint holding states must hold exactly K of them.
	fewer := *mid
	fewer.Clusters = mid.Clusters[:len(mid.Clusters)-1]
	if _, err := RunWithOptions(context.Background(), m, cfg, RunOptions{Resume: &fewer}); err == nil || !strings.Contains(err.Error(), "clusters") {
		t.Fatalf("resume from %d of %d cluster states: err %v", len(fewer.Clusters), cfg.K, err)
	}
}

// seedCheckpoint cancels a run right after seeding and returns the
// partial result's checkpoint: boundary 0, the seed checkpoint.
func seedCheckpoint(t testing.TB, m *matrix.Matrix, cfg Config) *Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunWithOptions(ctx, m, cfg, RunOptions{OnProgress: func(Progress) { cancel() }})
	var pr *PartialResult
	if !errors.As(err, &pr) {
		t.Fatalf("run cancelled after seeding returned %v, want a *PartialResult", err)
	}
	ck := pr.Checkpoint
	if ck.Iterations != 0 || len(ck.Trace) != 1 || len(ck.Clusters) != 0 || ck.MatrixSum != 0 {
		t.Fatalf("boundary-0 checkpoint %+v, want a seed checkpoint", ck)
	}
	return ck
}

// TestResumeFromEveryBoundaryBitIdentical is the core durability
// guarantee: resuming from ANY iteration boundary's checkpoint, the
// seed checkpoint at boundary 0 included, must finish with a
// determinism fingerprint bit-identical to the uninterrupted run's.
func TestResumeFromEveryBoundaryBitIdentical(t *testing.T) {
	m := resilienceTestMatrix(t)
	cfg := resilienceTestConfig(t)
	full, cks := captureCheckpoints(t, m, cfg)
	want := fingerprint(full)

	for _, ck := range append([]*Checkpoint{seedCheckpoint(t, m, cfg)}, cks...) {
		resumed, err := RunWithOptions(context.Background(), m, cfg, RunOptions{Resume: ck})
		if err != nil {
			t.Fatalf("resume from iteration %d: %v", ck.Iterations, err)
		}
		if got := fingerprint(resumed); got != want {
			t.Fatalf("resume from iteration %d diverged:\n--- uninterrupted\n%s--- resumed\n%s",
				ck.Iterations, want, got)
		}
	}
}

// TestResumeOutlivesIterationCap: a checkpoint from a MaxIterations-
// capped run resumes under a larger budget and matches the
// uninterrupted full run — the basis of the CI resume smoke test.
func TestResumeOutlivesIterationCap(t *testing.T) {
	m := resilienceTestMatrix(t)
	cfg := resilienceTestConfig(t)
	full, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations < 2 {
		t.Fatalf("workload converged in %d iterations; too easy to interrupt", full.Iterations)
	}

	capped := cfg
	capped.MaxIterations = 1
	_, cks := captureCheckpoints(t, m, capped)

	resumed, err := RunWithOptions(context.Background(), m, cfg, RunOptions{Resume: cks[len(cks)-1]})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(resumed), fingerprint(full); got != want {
		t.Fatalf("capped-then-resumed run diverged from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
	}
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	m := resilienceTestMatrix(t)
	cfg := resilienceTestConfig(t)
	_, cks := captureCheckpoints(t, m, cfg)
	ck := cks[0]

	otherSeed := cfg
	otherSeed.Seed = 8
	if _, err := RunWithOptions(context.Background(), m, otherSeed, RunOptions{Resume: ck}); err == nil {
		t.Fatal("resume under a different seed was accepted")
	} else if !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("error %q does not mention the configuration", err)
	}

	otherMatrix := m.Clone()
	otherMatrix.Set(0, 0, otherMatrix.Get(0, 0)+1)
	if _, err := RunWithOptions(context.Background(), otherMatrix, cfg, RunOptions{Resume: ck}); err == nil {
		t.Fatal("resume over a different matrix was accepted")
	} else if !strings.Contains(err.Error(), "matrix") {
		t.Fatalf("error %q does not mention the matrix", err)
	}
}

// TestCheckpointsCarryMatrixSum pins the run's single matrix hash:
// every checkpoint a run emits — each periodic one and the final one,
// on a cold run, a resumed run and a warm start — carries matrixSum of
// the matrix that run saw. The warm start runs on a mutated matrix, so
// its checkpoints must carry the new sum, not the parent's.
func TestCheckpointsCarryMatrixSum(t *testing.T) {
	m := warmTestMatrix(t, 1)
	cfg := warmTestConfig(1)
	run := func(what string, opts RunOptions) *Result {
		t.Helper()
		want := matrixSum(m)
		var cks []*Checkpoint
		opts.KeepFinalCheckpoint = true
		opts.CheckpointEvery = 1
		opts.OnCheckpoint = func(ck *Checkpoint) error {
			cks = append(cks, ck)
			return nil
		}
		res, err := RunWithOptions(context.Background(), m, cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, ck := range append(cks, res.FinalCheckpoint) {
			if ck.MatrixSum != want {
				t.Fatalf("%s: checkpoint at iteration %d carries matrix sum %016x, want %016x",
					what, ck.Iterations, ck.MatrixSum, want)
			}
		}
		return res
	}
	cold := run("cold", RunOptions{})
	if cold.Iterations < 2 {
		t.Fatalf("cold run took %d improving iterations; too few to resume mid-run", cold.Iterations)
	}
	var first *Checkpoint
	if _, err := RunWithOptions(context.Background(), m, cfg, RunOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *Checkpoint) error {
			if first == nil {
				first = ck
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	run("resume", RunOptions{Resume: first})

	parentSum := matrixSum(m)
	parentRows := plantDelta(t, m)
	if matrixSum(m) == parentSum {
		t.Fatal("the planted delta left the matrix sum unchanged")
	}
	run("warm start", RunOptions{WarmStart: &WarmStart{Checkpoint: cold.FinalCheckpoint, ParentRows: parentRows}})
}
