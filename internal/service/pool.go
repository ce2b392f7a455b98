package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"deltacluster/internal/bicluster"
	"deltacluster/internal/clique"
	"deltacluster/internal/cluster"
	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/resilience"
)

// worker is one slot of the bounded pool: it consumes job IDs until
// the queue is closed by Shutdown. The pool size is the hard cap on
// concurrently running engines — submission never spawns goroutines.
func (s *Server) worker() {
	defer s.wg.Done()
	for id := range s.queue {
		s.runJob(id)
	}
}

// runJob executes one queued job end to end: claim, take (or build)
// the job's dense matrix, run under the job's own context, flush any
// interrupted-run checkpoint, and publish the terminal state.
//
// deltavet:observability — the wall-clock reads here time the job for
// metrics and logs; no clustering result depends on them.
func (s *Server) runJob(id string) {
	if s.Draining() {
		// Drain semantics: jobs that never started are cancelled, not
		// run — only in-flight work gets the grace period.
		if _, fromQueue, ok := s.store.requestCancel(id); ok && fromQueue {
			s.metrics.jobCancelledQueued()
			s.logf("deltaserve: job %s cancelled by drain before start", id)
		}
		return
	}
	spec := s.store.specOf(id)
	if spec == nil {
		return
	}

	ctx, cancel := jobContext(spec)
	if !s.store.start(id, cancel) {
		// Cancelled while queued (or evicted); nothing to run.
		cancel()
		return
	}
	s.metrics.jobStarted()
	started := time.Now()

	var view *ResultView
	m, err := s.store.head(id)
	if err == nil {
		view, err = s.execute(ctx, id, spec, m)
	}
	cancel()

	state, view, errMsg := s.outcome(id, view, err)
	if state == StateCancelled || (view != nil && view.Partial) {
		// Flush before the terminal state is published: a client that
		// sees the job cancelled may read <id>.dckp straight away.
		s.flushCheckpoint(id)
	}
	s.store.finish(id, state, view, errMsg)
	s.metrics.jobFinished(state, time.Since(started))
	s.logf("deltaserve: job %s %s after %v", id, state, time.Since(started).Round(time.Millisecond))
}

// jobContext builds the per-job context: cancellable always, and
// deadline-bounded when the spec asks for one.
func jobContext(spec *runSpec) (context.Context, context.CancelFunc) {
	if spec.deadline > 0 {
		return context.WithTimeout(context.Background(), spec.deadline)
	}
	return context.WithCancel(context.Background())
}

// execute runs spec on m through the engine (or the test hook),
// converting a panic into an error so one poisoned job cannot take
// down a worker.
func (s *Server) execute(ctx context.Context, id string, spec *runSpec, m *matrix.Matrix) (view *ResultView, err error) {
	defer func() {
		if r := recover(); r != nil {
			view, err = nil, fmt.Errorf("engine panicked: %v", r)
		}
	}()
	if s.runHook != nil {
		return s.runHook(ctx, spec)
	}
	switch spec.algorithm {
	case AlgoFLOC:
		return s.runFLOC(ctx, id, spec, m)
	case AlgoBicluster:
		return runBicluster(ctx, spec, m)
	case AlgoClique:
		return runClique(ctx, spec, m)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", spec.algorithm)
	}
}

// outcome maps an engine return to the job's terminal state. The
// rules, in order:
//
//   - complete result, no error → done;
//   - partial result + cancellation requested → cancelled, result kept;
//   - partial result otherwise (deadline) → done, marked partial;
//   - no result + cancellation requested → cancelled;
//   - no result otherwise → failed.
func (s *Server) outcome(id string, view *ResultView, err error) (JobState, *ResultView, string) {
	cancelRequested := s.store.cancelRequestedOf(id)
	switch {
	case err == nil && view != nil:
		return StateDone, view, ""
	case view != nil:
		view.Partial = true
		if cancelRequested {
			return StateCancelled, view, err.Error()
		}
		return StateDone, view, ""
	case err == nil:
		return StateFailed, nil, "engine returned no result"
	case cancelRequested:
		return StateCancelled, nil, err.Error()
	default:
		return StateFailed, nil, err.Error()
	}
}

// flushCheckpoint persists an interrupted FLOC job's last resumable
// checkpoint to the checkpoint directory, so a drain-interrupted run
// can be finished offline with `floc -resume`.
func (s *Server) flushCheckpoint(id string) {
	if s.opts.CheckpointDir == "" {
		return
	}
	ck := s.store.latestCheckpoint(id)
	if ck == nil {
		return
	}
	path := filepath.Join(s.opts.CheckpointDir, id+".dckp")
	if err := floc.WriteCheckpointFile(path, ck); err != nil {
		s.logf("deltaserve: flushing checkpoint for job %s: %v", id, err)
		return
	}
	s.logf("deltaserve: job %s checkpoint flushed to %s", id, path)
}

// runFLOC executes a FLOC job as a supervised campaign: spec.attempts
// restart attempts over rotated seeds, panic isolation, and graceful
// degradation — exactly the resilience machinery cmd/experiments
// uses, now one-per-job. Live progress and interrupted-attempt
// checkpoints are threaded into the store as they happen.
func (s *Server) runFLOC(ctx context.Context, id string, spec *runSpec, m *matrix.Matrix) (*ResultView, error) {
	if spec.start != nil {
		return s.startFLOC(ctx, id, spec, m)
	}
	var attemptN int64
	run := func(ctx context.Context, seed int64) (*floc.Result, error) {
		n := int(atomic.AddInt64(&attemptN, 1))
		cfg := spec.floc
		cfg.Seed = seed
		opts := s.flocRunOptions(id, n)
		opts.KeepFinalCheckpoint = true
		res, err := floc.RunWithOptions(ctx, m, cfg, opts)
		if err != nil {
			var pr *floc.PartialResult
			if errors.As(err, &pr) {
				s.store.setCheckpoint(id, pr.Checkpoint)
			}
		}
		return res, err
	}
	rep, err := resilience.Supervise(ctx, resilience.Policy{
		Attempts: spec.attempts,
		Seed:     spec.floc.Seed,
		Logf:     s.opts.Logf,
	}, run)
	if err != nil {
		return nil, err
	}
	s.keepFinal(id, rep.Best.FinalCheckpoint)
	view := &ResultView{
		Algorithm:      AlgoFLOC,
		AvgResidue:     rep.Best.AvgResidue,
		Iterations:     rep.Best.Iterations,
		BestSeed:       rep.BestSeed,
		Attempts:       len(rep.Attempts),
		DurationMillis: rep.Best.Duration.Milliseconds(),
		Clusters:       clusterViews(rep.Best.Clusters),
	}
	if rep.Degraded {
		view.Partial = true
		// Surface the context's cause so outcome() can tell an
		// explicit cancel from a deadline; a degraded-but-complete
		// campaign (nil ctx error) still counts as done.
		if cerr := ctx.Err(); cerr != nil {
			return view, cerr
		}
	}
	return view, nil
}

// flocRunOptions assembles the per-attempt RunOptions: live progress
// into the store, and — when the server checkpoints periodically —
// every boundary checkpoint into the store too, where the replication
// endpoint serves it.
func (s *Server) flocRunOptions(id string, attempt int) floc.RunOptions {
	opts := floc.RunOptions{
		OnProgress: func(p floc.Progress) {
			s.store.setProgress(id, ProgressView{
				Attempt:    attempt,
				Iteration:  p.Iteration,
				AvgResidue: p.AvgResidue,
			})
		},
	}
	if s.opts.CheckpointEvery > 0 {
		opts.CheckpointEvery = s.opts.CheckpointEvery
		opts.OnCheckpoint = func(ck *floc.Checkpoint) error {
			s.store.setCheckpoint(id, ck)
			return nil
		}
	}
	return opts
}

// startFLOC runs a FLOC job from a checkpoint: exactly one attempt,
// under the checkpoint's seed, so the engine continues its counted RNG
// stream. Two callers share it:
//
//   - a migrated job resumes from its own replicated checkpoint, which
//     it publishes at once, so the trajectory past the boundary is
//     bit-identical to the one the lost backend would have produced
//     and repeated failovers never recompute a completed boundary;
//   - a recluster child warm-starts from its parent's final checkpoint
//     on the lineage's (possibly patched) head; when the matrix has not
//     changed, the run is bit-identical to the parent's.
//
// Either way the job keeps its own final boundary (the partial run's
// on a deadline), so reclusters chain indefinitely.
func (s *Server) startFLOC(ctx context.Context, id string, spec *runSpec, m *matrix.Matrix) (*ResultView, error) {
	opts := s.flocRunOptions(id, 1)
	opts.KeepFinalCheckpoint = true
	if spec.resumed {
		s.store.setCheckpoint(id, spec.start.Checkpoint)
		opts.Resume = spec.start.Checkpoint
	} else {
		opts.WarmStart = spec.start
	}
	res, err := floc.RunWithOptions(ctx, m, spec.floc, opts)
	var pr *floc.PartialResult
	if errors.As(err, &pr) {
		res = pr.Result
	} else if err != nil {
		return nil, err
	}
	s.keepFinal(id, res.FinalCheckpoint)
	view := flocView(res, spec.floc.Seed)
	view.Partial = err != nil
	view.WarmStart = !spec.resumed
	return view, err
}

// keepFinal records a run's final boundary as the job's recluster
// handle and feeds it to the replication checkpoint stream (which
// ignores it if a later-iteration periodic checkpoint already landed
// there).
func (s *Server) keepFinal(id string, ck *floc.Checkpoint) {
	s.store.setFinalCheckpoint(id, ck)
	s.store.setCheckpoint(id, ck)
}

// flocView renders a single-attempt FLOC result.
func flocView(res *floc.Result, seed int64) *ResultView {
	return &ResultView{
		Algorithm:      AlgoFLOC,
		AvgResidue:     res.AvgResidue,
		Iterations:     res.Iterations,
		BestSeed:       seed,
		Attempts:       1,
		DurationMillis: res.Duration.Milliseconds(),
		Clusters:       clusterViews(res.Clusters),
	}
}

func runBicluster(ctx context.Context, spec *runSpec, m *matrix.Matrix) (*ResultView, error) {
	res, err := bicluster.RunContext(ctx, m, spec.bic)
	if err != nil {
		var pr *bicluster.PartialResult
		if errors.As(err, &pr) && pr.Result != nil && len(pr.Result.Biclusters) > 0 {
			return biclusterView(pr.Result), err
		}
		return nil, err
	}
	return biclusterView(res), nil
}

func biclusterView(res *bicluster.Result) *ResultView {
	return &ResultView{
		Algorithm:      AlgoBicluster,
		DurationMillis: res.Duration.Milliseconds(),
		Clusters:       clusterViews(res.Biclusters),
	}
}

func runClique(ctx context.Context, spec *runSpec, m *matrix.Matrix) (*ResultView, error) {
	res, err := clique.RunContext(ctx, m, spec.clq)
	if err != nil {
		var pr *clique.PartialResult
		if errors.As(err, &pr) && pr.Result != nil && len(pr.Result.Clusters) > 0 {
			return cliqueView(pr.Result), err
		}
		return nil, err
	}
	return cliqueView(res), nil
}

func cliqueView(res *clique.Result) *ResultView {
	v := &ResultView{
		Algorithm:      AlgoClique,
		DurationMillis: res.Duration.Milliseconds(),
		Subspaces:      make([]SubspaceView, 0, len(res.Clusters)),
	}
	for _, c := range res.Clusters {
		v.Subspaces = append(v.Subspaces, SubspaceView{Dims: c.Dims, Points: c.Points})
	}
	return v
}

// clusterViews renders clusters in the engine's reported order.
func clusterViews(clusters []*cluster.Cluster) []ClusterView {
	out := make([]ClusterView, 0, len(clusters))
	for _, c := range clusters {
		spec := c.Spec()
		out = append(out, ClusterView{
			Rows:    spec.Rows,
			Cols:    spec.Cols,
			Volume:  c.Volume(),
			Residue: c.Residue(),
		})
	}
	return out
}
