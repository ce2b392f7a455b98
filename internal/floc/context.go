package floc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"deltacluster/internal/matrix"
)

// StopReason says why a run stopped before convergence.
type StopReason int

const (
	// StopNone means the run was not stopped early.
	StopNone StopReason = iota
	// StopCancelled means the context was cancelled.
	StopCancelled
	// StopDeadline means the context's deadline expired.
	StopDeadline
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopCancelled:
		return "cancelled"
	case StopDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// PartialResult is the typed error a context-aware run returns when it
// is cancelled or times out. It carries the best-so-far clustering at
// the last completed iteration boundary, so a caller can degrade
// gracefully — report the partial clustering, persist the checkpoint,
// or hand the result to the resilience supervisor as a candidate.
//
// Unwrap returns the context's error, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) work through it.
type PartialResult struct {
	// Result is the clustering at the last completed iteration
	// boundary (the seed clustering when no iteration completed). The
	// polish phase has NOT run on it: the state matches Checkpoint
	// exactly, so resuming and finishing produces the same final
	// clustering an uninterrupted run would. Its FinalCheckpoint is
	// Checkpoint.
	Result *Result

	// Checkpoint resumes the run from the last completed iteration
	// boundary. It is never nil: before the first improving iteration
	// it is the run's boundary 0 (the seed checkpoint of a cold run).
	Checkpoint *Checkpoint

	// Reason says whether cancellation or a deadline stopped the run.
	Reason StopReason

	cause error
}

// Error implements error.
func (p *PartialResult) Error() string {
	return fmt.Sprintf("floc: run stopped (%s) after %d improving iterations", p.Reason, p.Result.Iterations)
}

// Unwrap exposes the underlying context error.
func (p *PartialResult) Unwrap() error { return p.cause }

// Progress is a live position report of a running optimization: the
// number of improving iterations completed and the best average
// residue at that boundary.
type Progress struct {
	// Iteration counts the improving iterations completed so far (the
	// value Result.Iterations would have if the run stopped here).
	Iteration int

	// AvgResidue is the average residue of the best clustering at
	// this boundary — the last entry of the residue trace.
	AvgResidue float64
}

// RunOptions extends RunContext with checkpointing and observation.
type RunOptions struct {
	// Resume, when non-nil, restarts the run from a checkpoint. The
	// matrix, seed and configuration (MaxIterations excepted) must
	// match the checkpointed run's; the resumed run is then
	// bit-identical to the uninterrupted one. A seed checkpoint holds
	// no matrix sum, so resuming it is the cold run on the given
	// matrix.
	Resume *Checkpoint

	// WarmStart, when non-nil, starts the run from a parent run's
	// checkpoint — the deltastream re-convergence path. Unlike Resume,
	// the matrix MAY have mutated since the checkpoint was cut (that is
	// the point); when it has not, the warm start degenerates to the
	// resume path and is bit-identical to the parent's run. Mutually
	// exclusive with Resume.
	WarmStart *WarmStart

	// KeepFinalCheckpoint preserves the last iteration boundary in
	// Result.FinalCheckpoint, so the caller holds the parent handle a
	// later warm-started recluster needs; every run has one, boundary
	// 0 included. The capture happens at each boundary (overwriting
	// the previous), never after the final non-improving iteration —
	// the checkpoint's RNG position must be the boundary position for
	// a warm resume to replay the run's tail bit-identically.
	KeepFinalCheckpoint bool

	// CheckpointEvery cuts a checkpoint after every n-th improving
	// iteration and hands it to OnCheckpoint. 0 disables periodic
	// checkpoints; negative is an error.
	CheckpointEvery int

	// OnCheckpoint receives each periodic checkpoint. A non-nil return
	// aborts the run with that error. Ignored when CheckpointEvery is
	// 0.
	OnCheckpoint func(*Checkpoint) error

	// OnProgress, when non-nil, observes the run's live position: it
	// is called once after seeding (or resuming) and again after every
	// improving iteration, on the run's own goroutine. It is pure
	// observation — it draws no randomness and cannot influence the
	// run, so fingerprints are identical with and without it — but it
	// runs between iterations, so it must return quickly.
	OnProgress func(Progress)
}

// Run executes FLOC on m with the given configuration and returns the
// best clustering found. The configuration is validated and defaulted;
// equal seeds yield identical results.
func Run(m *matrix.Matrix, cfg Config) (*Result, error) {
	return RunContext(context.Background(), m, cfg)
}

// RunContext is Run with cancellation: the context is checked at every
// phase-2 iteration boundary, and a cancelled or expired context stops
// the run with a *PartialResult error carrying the best-so-far
// clustering.
func RunContext(ctx context.Context, m *matrix.Matrix, cfg Config) (*Result, error) {
	return RunWithOptions(ctx, m, cfg, RunOptions{})
}

// RunWithOptions is RunContext plus durable checkpointing: the run can
// start from a checkpoint and emit periodic checkpoints. Resuming a
// checkpoint under the same seed and configuration is bit-identical to
// the uninterrupted run. Config.Workers is not part of "same
// configuration" for this purpose: the decide phase's worker count
// never affects any output — results, traces, checkpoints — so a
// checkpoint written at one worker count may resume at any other.
//
// deltavet:observability — the single wall-clock read seeds the
// Duration reporting field; nothing fingerprinted depends on it.
func RunWithOptions(ctx context.Context, m *matrix.Matrix, cfg Config, opts RunOptions) (*Result, error) {
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		return nil, err
	}
	if opts.CheckpointEvery < 0 {
		return nil, fmt.Errorf("floc: CheckpointEvery = %d, want ≥ 0", opts.CheckpointEvery)
	}
	start := time.Now()

	if opts.Resume != nil && opts.WarmStart != nil {
		return nil, fmt.Errorf("floc: Resume and WarmStart are mutually exclusive")
	}

	ck, parentRows := opts.Resume, 0
	if ws := opts.WarmStart; ws != nil {
		if ws.Checkpoint == nil {
			return nil, fmt.Errorf("floc: WarmStart without a checkpoint")
		}
		if ws.ParentRows < 0 || ws.ParentRows > m.Rows() {
			return nil, fmt.Errorf("floc: warm start claims %d parent rows, matrix has %d", ws.ParentRows, m.Rows())
		}
		ck, parentRows = ws.Checkpoint, ws.ParentRows
	}
	var (
		e          *engine
		iterations int
		trace      []float64
	)
	if ck != nil {
		if err := ck.validate(&cfg); err != nil {
			return nil, err
		}
	}
	if ck == nil || len(ck.Clusters) == 0 {
		// A cold run, or a start from a seed checkpoint, which is the
		// cold run under the checkpoint's seed (the config sums match).
		e = newEngine(m, &cfg)
	} else {
		// An empty delta carries the counters and the trace over, which
		// makes the whole run bit-identical to the uninterrupted one —
		// the deltastream equivalence guarantee.
		msum := matrixSum(m)
		carry := msum == ck.MatrixSum
		if opts.Resume != nil && !carry {
			return nil, fmt.Errorf("floc: checkpoint was written for a different matrix (sum %016x, want %016x)", ck.MatrixSum, msum)
		}
		var err error
		if e, err = startEngine(m, &cfg, ck, parentRows, msum, carry); err != nil {
			return nil, err
		}
		if carry {
			iterations = ck.Iterations
			trace = append([]float64(nil), ck.Trace...)
		}
	}
	if trace == nil {
		trace = []float64{e.avgResidue()}
	}
	// finalCk is the last boundary, kept under KeepFinalCheckpoint. The
	// starting boundary is cut only if the run ends there, at the RNG
	// position and counters saved here, so a run that improves pays
	// nothing for it.
	var finalCk *Checkpoint
	draws0, actions0, evals0 := e.rng.Draws(), e.actions, e.gainEvals

	progress := func() {
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Iteration: iterations, AvgResidue: trace[len(trace)-1]})
		}
	}
	progress()

	// Phase 2: iterative improvement.
	bestCost := e.costSum
	for iterations < cfg.MaxIterations {
		if err := ctx.Err(); err != nil {
			return nil, e.interrupted(err, iterations, trace, start)
		}
		improvedCost, improved := e.iterate(bestCost)
		if !improved {
			break
		}
		bestCost = improvedCost
		trace = append(trace, e.avgResidue())
		iterations++
		if opts.KeepFinalCheckpoint {
			finalCk = e.exportCheckpoint(iterations, trace)
		}
		progress()
		if chaosEnabled {
			if err := chaos("post-iteration"); err != nil {
				panic(err)
			}
		}
		if opts.CheckpointEvery > 0 && opts.OnCheckpoint != nil && iterations%opts.CheckpointEvery == 0 {
			if err := opts.OnCheckpoint(e.exportCheckpoint(iterations, trace)); err != nil {
				return nil, fmt.Errorf("floc: checkpoint sink at iteration %d: %w", iterations, err)
			}
		}
	}

	if opts.KeepFinalCheckpoint && finalCk == nil {
		finalCk = e.exportCheckpoint(iterations, trace)
		finalCk.Draws, finalCk.Actions, finalCk.GainEvals = draws0, actions0, evals0
	}
	e.finish()
	res := e.result(iterations, trace, start)
	if opts.KeepFinalCheckpoint {
		res.FinalCheckpoint = finalCk
	}
	return res, nil
}

// interrupted packages the engine's boundary state as the typed
// *PartialResult cancellation error.
func (e *engine) interrupted(cause error, iterations int, trace []float64, start time.Time) *PartialResult {
	reason := StopCancelled
	if errors.Is(cause, context.DeadlineExceeded) {
		reason = StopDeadline
	}
	ck := e.exportCheckpoint(iterations, trace)
	res := e.result(iterations, append([]float64(nil), trace...), start)
	res.FinalCheckpoint = ck
	return &PartialResult{Result: res, Checkpoint: ck, Reason: reason, cause: cause}
}
