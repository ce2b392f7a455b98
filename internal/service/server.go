// Package service is deltaserve: an embeddable asynchronous HTTP JSON
// API for δ-cluster jobs, built on the stdlib only. A submission
// enters a bounded queue and is executed by a fixed worker pool, each
// job wrapped in the internal/resilience supervisor with its own
// deadline and cancel path; results live in an in-memory store until
// a TTL evicts them.
//
//	POST   /v1/jobs                  submit a job        → 202 + job ID
//	GET    /v1/jobs/{id}             status + progress   → 200
//	GET    /v1/jobs/{id}/result      final clustering    → 200
//	DELETE /v1/jobs/{id}             cancel              → 202 (or 200)
//	PATCH  /v1/jobs/{id}/matrix      deltastream patch   → 200
//	POST   /v1/jobs/{id}:recluster   warm-start child    → 202
//	GET    /healthz             liveness            → 200
//	GET    /metrics             counters/histogram  → 200
//
// Backpressure is explicit: when the queue is full, submission fails
// fast with 429 and a Retry-After hint — the server never accumulates
// unbounded goroutines or jobs. Shutdown drains: submissions are
// rejected, queued-but-unstarted jobs are cancelled, running jobs get
// the caller's grace period, and jobs still running when it expires
// are context-cancelled, their best-so-far FLOC checkpoints flushed
// to the checkpoint directory.
//
// This package opts into the deltavet:deterministic discipline — not
// because a concurrent server is replayable, but because the parts
// that can be deterministic must be: job IDs come from a seeded
// stats.RNG, map walks are order-fixed, contexts ride first-parameter
// only and never live in structs, and floats are never compared raw.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Options configures a Server. The zero value is usable: 4 workers, a
// 64-deep queue, 15-minute TTL, no default deadline.
type Options struct {
	// Workers is the size of the worker pool — the hard cap on
	// concurrently running jobs. Defaults to 4.
	Workers int

	// QueueCap bounds the number of accepted-but-unstarted jobs. A
	// full queue rejects submissions with 429 + Retry-After. Defaults
	// to 64.
	QueueCap int

	// TTL is how long a finished job (and its result) stays readable.
	// Defaults to 15 minutes.
	TTL time.Duration

	// Seed drives the job-ID RNG: equal seeds issue equal ID
	// sequences. Defaults to 1.
	Seed int64

	// DefaultDeadline bounds jobs that do not set deadline_ms; 0
	// leaves them unbounded.
	DefaultDeadline time.Duration

	// MaxDeadline, when positive, clamps every job's deadline
	// (including "none requested") to at most this.
	MaxDeadline time.Duration

	// CheckpointDir, when set, receives <jobID>.dckp checkpoint files
	// for FLOC jobs interrupted mid-run (cancel, deadline, drain).
	CheckpointDir string

	// CheckpointEvery, when positive, cuts a resumable checkpoint after
	// every n-th improving FLOC iteration and keeps the latest in the
	// job store, where GET /v1/internal/jobs/{id}/checkpoint serves it
	// for coordinator replication. 0 keeps only interrupted-run
	// checkpoints (the single-node default).
	CheckpointEvery int

	// MaxReplicaEntries bounds the peer-replica table (checkpoints and
	// job metadata held for jobs owned by other backends). When full,
	// the least-recently-written entry is evicted. Defaults to 1024.
	MaxReplicaEntries int

	// RetryAfter is the hint returned with 429 responses. Defaults to
	// 1s.
	RetryAfter time.Duration

	// MaxBodyBytes caps the request body. Defaults to 32 MiB.
	MaxBodyBytes int64

	// MaxMatrixEntries caps rows×cols of a submitted matrix. Defaults
	// to 4,194,304 (a 2048×2048 matrix). Negative disables the cap.
	MaxMatrixEntries int

	// Logf, when non-nil, receives service lifecycle events. Silent by
	// default.
	Logf func(format string, args ...any)

	// Clock overrides time.Now for the job store (tests). Engine
	// durations still use the real clock.
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.TTL <= 0 {
		o.TTL = 15 * time.Minute
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxMatrixEntries == 0 {
		o.MaxMatrixEntries = 4 << 20
	}
	if o.MaxReplicaEntries <= 0 {
		o.MaxReplicaEntries = 1024
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Server is the deltaserve service: handlers, job store, worker pool
// and metrics. Create one with New, mount Handler on any mux or
// listener, and Shutdown to drain.
type Server struct {
	opts     Options
	store    *store
	replicas *replicaStore
	metrics  *metrics
	mux      *http.ServeMux
	queue    chan string
	wg       sync.WaitGroup

	mu       sync.Mutex
	draining bool
	// notReady is the admin-drain flag: /readyz turns 503 and
	// submissions are refused, but the process keeps serving reads —
	// the planned-migration half-state between "up" and "shut down".
	notReady bool

	shutdownOnce sync.Once
	shutdownErr  error

	// runHook, when non-nil, replaces the per-algorithm engines for
	// every job on this server — a test seam for exercising queueing,
	// cancellation and drain semantics with controllable run bodies.
	runHook func(ctx context.Context, spec *runSpec) (*ResultView, error)

	// enqueueHook, when non-nil, runs after each job is queued and
	// before its submit handler answers — a test seam that lets a
	// worker finish the job first, deterministically.
	enqueueHook func(id string)
}

// New builds a Server and starts its worker pool. The caller must
// eventually call Shutdown to stop the workers.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:     o,
		store:    newJobStore(o.Seed, o.TTL, o.Clock),
		replicas: newReplicaStore(o.MaxReplicaEntries),
		metrics:  &metrics{},
		queue:    make(chan string, o.QueueCap),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/jobs:batch", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("PATCH /v1/jobs/{id}/matrix", s.handlePatchMatrix)
	s.mux.HandleFunc("POST /v1/jobs/{target}", s.handleJobAction)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/admin/drain", s.handleDrain)
	s.mux.HandleFunc("POST /v1/internal/jobs", s.handleDispatch)
	s.mux.HandleFunc("GET /v1/internal/jobs/{id}/checkpoint", s.handleJobCheckpoint)
	s.mux.HandleFunc("PUT /v1/internal/replicas/{id}/checkpoint", s.handleReplicaPutCheckpoint)
	s.mux.HandleFunc("GET /v1/internal/replicas/{id}/checkpoint", s.handleReplicaGetCheckpoint)
	s.mux.HandleFunc("PUT /v1/internal/replicas/{id}/meta", s.handleReplicaPutMeta)
	s.mux.HandleFunc("GET /v1/internal/replicas/{id}/meta", s.handleReplicaGetMeta)
	s.mux.HandleFunc("DELETE /v1/internal/replicas/{id}", s.handleReplicaDelete)

	s.wg.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready reports whether the node accepts new work: neither shutting
// down nor admin-drained. Liveness (/healthz) stays true in both
// drain states; readiness is what routing layers consult.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && !s.notReady
}

// BeginDrain flips the node to not-ready and pushes every non-terminal
// job to a checkpointed stop: queued jobs are cancelled outright,
// running engines are context-cancelled and flush their best-so-far
// checkpoints into the store (still downloadable afterwards — the
// process keeps serving). Idempotent; returns how many jobs were asked
// to stop by this call.
func (s *Server) BeginDrain() int {
	s.mu.Lock()
	s.notReady = true
	s.mu.Unlock()
	queued, running := s.store.cancelAllActive()
	for i := 0; i < queued; i++ {
		s.metrics.jobCancelledQueued()
	}
	if queued+running > 0 {
		s.logf("deltaserve: admin drain: %d queued job(s) cancelled, %d running job(s) stopping", queued, running)
	}
	return queued + running
}

// Shutdown drains the service: new submissions are rejected with 503,
// queued-but-unstarted jobs are cancelled, and running jobs get until
// ctx expires to finish. Jobs still running then are context-
// cancelled (stopping within one engine iteration) and their partial
// FLOC checkpoints are flushed to CheckpointDir. Shutdown returns
// once every worker has exited; it never abandons a goroutine. It is
// idempotent: later calls return the first call's error and wait for
// the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		close(s.queue)
		s.mu.Unlock()

		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
			s.logf("deltaserve: drained cleanly")
		case <-ctx.Done():
			s.logf("deltaserve: drain budget expired; cancelling running jobs")
			s.store.cancelAllRunning()
			// Cancelled engines return within one iteration; the
			// workers then finish their jobs and exit. Waiting here
			// (not abandoning) is the zero-leak guarantee.
			<-done
			s.shutdownErr = ctx.Err()
		}
	})
	s.wg.Wait()
	return s.shutdownErr
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// handleSubmit validates the submission, registers the job, and
// enqueues it — or bounces with 429 (queue full) or 503 (draining).
// A Content-Type of application/x-deltacluster-matrix switches to the
// binary transport (binary.go); everything else is the JSON body.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		s.handleSubmitBinary(w, r)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding request: %v", err)
		return
	}
	spec, m, aerr := s.buildSpec(&req)
	if aerr != nil {
		writeError(w, aerr.status, aerr.code, "%s", aerr.message)
		return
	}
	base := parkedSection(spec, m, nil)

	// Opportunistic eviction keeps the store bounded without a
	// janitor goroutine.
	s.store.sweep()

	id := s.store.create(spec, m, base)
	// The view is taken before the enqueue: once queued, a worker may
	// start or even finish the job before this handler answers, and
	// the 202 reports the job as accepted, not as the race left it.
	view, _ := s.store.view(id)
	if !s.enqueue(w, id) {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, SubmitResponse{Job: view})
}

// tryEnqueue places a freshly registered job on the worker queue.
// When the node refuses — draining/not-ready (503) or queue full
// (429) — it rolls the registration back and returns the refusal for
// the caller to render (whole-response for a single submit, per-item
// for a batch).
func (s *Server) tryEnqueue(id string) *apiError {
	s.mu.Lock()
	if s.draining || s.notReady {
		s.mu.Unlock()
		s.store.drop(id)
		return &apiError{status: http.StatusServiceUnavailable, code: CodeDraining,
			message: "server is draining"}
	}
	select {
	case s.queue <- id:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.store.drop(id)
		s.metrics.jobRejected()
		return &apiError{status: http.StatusTooManyRequests, code: CodeQueueFull,
			message: fmt.Sprintf("queue is full (%d jobs waiting); retry later", s.opts.QueueCap)}
	}
	s.metrics.jobSubmitted()
	if s.enqueueHook != nil {
		s.enqueueHook(id)
	}
	return nil
}

// enqueue is tryEnqueue rendering its refusal as the whole response.
func (s *Server) enqueue(w http.ResponseWriter, id string) bool {
	aerr := s.tryEnqueue(id)
	if aerr == nil {
		return true
	}
	if aerr.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
	}
	writeError(w, aerr.status, aerr.code, "%s", aerr.message)
	return false
}

// retryAfterSeconds renders a duration as the whole-second value the
// Retry-After header wants, rounding up so a 100ms hint is not "0".
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.store.view(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no job %q (unknown or expired)", id)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, view, ok := s.store.result(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no job %q (unknown or expired)", id)
		return
	}
	if res != nil {
		if acceptsBinary(r.Header.Get("Accept")) {
			writeBinaryResult(w, res)
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	switch view.State {
	case StateQueued, StateRunning:
		writeError(w, http.StatusConflict, CodeJobNotDone,
			"job %s is %s; poll GET /v1/jobs/%s until it is done", id, view.State, id)
	case StateFailed:
		writeError(w, http.StatusConflict, CodeJobFailed, "job %s failed: %s", id, view.Error)
	case StateCancelled:
		writeError(w, http.StatusConflict, CodeJobCancelled,
			"job %s was cancelled before producing a result", id)
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal,
			"job %s is %s with no result", id, view.State)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, fromQueue, ok := s.store.requestCancel(id)
	if fromQueue {
		s.metrics.jobCancelledQueued()
	}
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no job %q (unknown or expired)", id)
		return
	}
	// Terminal already (or cancelled instantly from the queue): the
	// outcome is settled → 200. A running engine stops asynchronously
	// → 202.
	status := http.StatusOK
	if !view.State.terminal() {
		status = http.StatusAccepted
	}
	writeJSON(w, status, view)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": !s.Ready(),
	})
}

// handleReadyz is the routing signal: 200 while the node accepts new
// jobs, 503 with a JSON body once draining (admin drain or shutdown).
// Load balancers and the coordinator stop routing on the 503; liveness
// (/healthz) stays 200 so the process is not killed mid-migration.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Ready() {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"status":   "draining",
		"draining": true,
	})
}

// handleDrain is POST /v1/admin/drain: flip readiness off and push
// every active job to a checkpointed stop so the coordinator can
// migrate it to a live backend. Idempotent — a second drain reports
// zero newly stopped jobs.
func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	stopped := s.BeginDrain()
	writeJSON(w, http.StatusOK, map[string]any{
		"draining": true,
		"stopped":  stopped,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	byState := s.store.countByState()
	stored := byState[StateQueued] + byState[StateRunning] +
		byState[StateDone] + byState[StateFailed] + byState[StateCancelled]
	v := s.metrics.snapshot(byState, stored, len(s.queue), cap(s.queue))
	v.Jobs.DenseMatrices, v.Jobs.ParkedMatrixBytes = s.store.matrixGauges()
	writeJSON(w, http.StatusOK, v)
}

// String identifies the server in logs.
func (s *Server) String() string {
	return fmt.Sprintf("deltaserve(workers=%d queue=%d)", s.opts.Workers, s.opts.QueueCap)
}
