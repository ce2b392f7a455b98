package floc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRunContextCancelledBeforeStart(t *testing.T) {
	m := resilienceTestMatrix(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := RunContext(ctx, m, resilienceTestConfig(t))
	if res != nil {
		t.Fatal("cancelled run returned a non-nil *Result")
	}
	var pr *PartialResult
	if !errors.As(err, &pr) {
		t.Fatalf("error %T is not a *PartialResult", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if pr.Reason != StopCancelled {
		t.Fatalf("Reason = %v, want %v", pr.Reason, StopCancelled)
	}
	if pr.Result == nil || pr.Result.Iterations != 0 {
		t.Fatalf("partial result %+v, want seed clustering at iteration 0", pr.Result)
	}
	if len(pr.Result.Clusters) == 0 {
		t.Fatal("partial result carries no clusters")
	}
	// Boundary 0 of a cold run is the seed checkpoint: no cluster
	// states, and resuming it is the uninterrupted run.
	if ck := pr.Checkpoint; ck == nil || ck.Iterations != 0 || len(ck.Clusters) != 0 || ck.MatrixSum != 0 {
		t.Fatalf("pre-first-boundary checkpoint %+v, want the seed checkpoint", pr.Checkpoint)
	}
	if pr.Result.FinalCheckpoint != pr.Checkpoint {
		t.Fatal("the partial result does not carry its checkpoint as FinalCheckpoint")
	}
	full, err := Run(m, resilienceTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := RunWithOptions(context.Background(), m, resilienceTestConfig(t), RunOptions{Resume: pr.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(resumed), fingerprint(full); got != want {
		t.Fatalf("resume from the seed checkpoint diverged:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
	}
	if !strings.Contains(pr.Error(), "cancelled") {
		t.Fatalf("Error() = %q, want the stop reason mentioned", pr.Error())
	}
}

// TestRunContextCancelStopsWithinOneIteration cancels the context as
// the boundary of iteration N is cut and requires the run to stop at
// exactly that iteration — the "within one iteration" guarantee — with
// a checkpoint that resumes to the uninterrupted result bit-for-bit.
func TestRunContextCancelStopsWithinOneIteration(t *testing.T) {
	m := resilienceTestMatrix(t)
	cfg := resilienceTestConfig(t)
	full, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Iterations < 3 {
		t.Fatalf("workload converged in %d iterations; too easy to interrupt mid-run", full.Iterations)
	}

	const stopAt = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := RunWithOptions(ctx, m, cfg, RunOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *Checkpoint) error {
			if ck.Iterations == stopAt {
				cancel()
			}
			return nil
		},
	})
	if res != nil {
		t.Fatal("cancelled run returned a non-nil *Result")
	}
	var pr *PartialResult
	if !errors.As(err, &pr) {
		t.Fatalf("error %T is not a *PartialResult", err)
	}
	if pr.Result.Iterations != stopAt {
		t.Fatalf("run stopped after iteration %d; cancellation at iteration %d was not honored within one iteration",
			pr.Result.Iterations, stopAt)
	}
	if pr.Checkpoint == nil || pr.Checkpoint.Iterations != stopAt {
		t.Fatalf("partial checkpoint %+v, want one at iteration %d", pr.Checkpoint, stopAt)
	}

	resumed, err := RunWithOptions(context.Background(), m, cfg, RunOptions{Resume: pr.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(resumed), fingerprint(full); got != want {
		t.Fatalf("resume from cancellation checkpoint diverged:\n--- uninterrupted\n%s--- resumed\n%s", want, got)
	}
}

func TestRunContextDeadline(t *testing.T) {
	m := resilienceTestMatrix(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	_, err := RunContext(ctx, m, resilienceTestConfig(t))
	var pr *PartialResult
	if !errors.As(err, &pr) {
		t.Fatalf("error %T is not a *PartialResult", err)
	}
	if pr.Reason != StopDeadline {
		t.Fatalf("Reason = %v, want %v", pr.Reason, StopDeadline)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
}

func TestRunWithOptionsRejectsNegativeCheckpointEvery(t *testing.T) {
	m := resilienceTestMatrix(t)
	_, err := RunWithOptions(context.Background(), m, resilienceTestConfig(t), RunOptions{CheckpointEvery: -1})
	if err == nil || !strings.Contains(err.Error(), "CheckpointEvery") {
		t.Fatalf("err = %v, want a CheckpointEvery validation error", err)
	}
}

// Run must stay a bit-identical thin wrapper over the context path.
func TestRunMatchesRunContext(t *testing.T) {
	m := resilienceTestMatrix(t)
	cfg := resilienceTestConfig(t)
	a, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(b), fingerprint(a); got != want {
		t.Fatalf("RunContext diverged from Run:\n--- Run\n%s--- RunContext\n%s", want, got)
	}
}
