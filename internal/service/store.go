package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
	"deltacluster/internal/stream"
)

// JobState is the lifecycle position of a job.
//
//	queued ──► running ──► done
//	   │           ├─────► failed
//	   └───────────┴─────► cancelled
//
// done, failed and cancelled are terminal; terminal jobs are evicted
// TTL after they finish.
type JobState string

// Job states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether a job in this state will never change
// again.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// job is the store's record of one submission. All mutable fields are
// guarded by the store's mutex; spec is immutable after creation and
// may be read lock-free.
type job struct {
	id    string
	spec  *runSpec
	state JobState

	// m is the dense matrix the job runs on, held only while the job is
	// queued or running and dropped at its terminal transition. A root
	// submission or coordinator dispatch arrives with it decoded; a
	// recluster child arrives without one, and its worker builds it
	// from the lineage (see head).
	m *matrix.Matrix

	created  time.Time
	started  time.Time
	finished time.Time

	progress    ProgressView
	hasProgress bool

	result *ResultView
	errMsg string

	// cancel stops the running engine; nil unless state == running.
	cancel context.CancelFunc
	// cancelRequested records that DELETE or a server drain asked the
	// job to stop, which is what distinguishes "cancelled" from
	// "failed by deadline" when the engine returns a context error.
	cancelRequested bool

	// checkpoint is the last resumable FLOC checkpoint an interrupted
	// attempt produced; Shutdown flushes it to the checkpoint
	// directory.
	checkpoint *floc.Checkpoint

	// finalCheckpoint is the winning attempt's final iteration
	// boundary, kept for every finished FLOC job (boundary 0 when the
	// run never improved) — the parent handle a recluster warm-starts
	// from after the lineage matrix mutates.
	finalCheckpoint *floc.Checkpoint

	// parent is the job this one was reclustered from ("" for a root
	// submission); lineage is the root job ID of the recluster chain —
	// every FLOC job in a lineage shares one base section and one
	// mutation log (see lineage).
	parent  string
	lineage string

	// baseRows is the matrix row count at job creation. The lineage
	// log cannot grow while any of its jobs is queued or running, so
	// this is also the row count the job's engine saw — the ParentRows
	// a child's warm start needs.
	baseRows int

	// matrixVersion is the lineage mutation-log version at job
	// creation: the matrix state this job's result reflects.
	matrixVersion int
}

// store is the in-memory job table: deterministic IDs from a seeded
// RNG, TTL eviction of terminal jobs, and mutex-guarded mutation. It
// owns no goroutines; eviction happens lazily on access and on every
// submission sweep.
type store struct {
	mu   sync.Mutex
	rng  *stats.RNG
	ttl  time.Duration
	now  func() time.Time
	jobs map[string]*job

	// lineages maps a FLOC lineage's root ID to its parked matrix,
	// created with the root job and evicted with the lineage's last
	// job record.
	lineages map[string]*lineage

	// done is the expiry FIFO: every terminal transition appends its
	// job here, so a sweep only inspects the front of the queue (the
	// oldest finishers) instead of sorting the whole table — sweep ran
	// on every submission and used to be O(jobs log jobs), which made
	// the submit path quadratic over a bench run. Entries are in
	// finish-time order because each transition records st.now() under
	// the lock. doneHead indexes the first live entry; consumed
	// prefixes are compacted away once they dominate the slice. A FIFO
	// entry is a hint, not ownership: lazy eviction (view/result) may
	// remove the job first, so sweep re-checks expiry via the jobs map.
	done     []doneEntry
	doneHead int
}

// doneEntry records one terminal transition for the expiry FIFO.
type doneEntry struct {
	id string
	at time.Time
}

// lineage is a FLOC lineage's matrix in its parked form: the DCMX
// section of the matrix as submitted (version 0) plus the mutation log
// since. A PATCH only appends to the log; the dense matrix a job runs
// on lives on the job record while the job is queued or running (a
// lineage has at most one such job) and is rebuilt from this pair
// when a recluster child starts. Decoding is bit-identical
// (matrix.DecodeBinary) and so is replay (stream.Log.ApplyTo), so a
// rebuilt head equals the matrix the old in-place patches produced.
type lineage struct {
	// base is the exact-size section (len == cap): a copy of the bytes
	// a binary submission arrived with, or the encoding of a JSON one.
	// It never changes.
	base []byte

	// log is appended only while no job of the lineage is queued or
	// running, under the store lock; a running job may therefore read
	// it without the lock.
	log *stream.Log
}

// parkedSection returns the section a FLOC job's lineage parks its
// version-0 matrix m as: an exact-size copy of section, the DCMX bytes
// m arrived in (a copy, because those alias a pooled request body,
// and not bytes.Clone, which rounds the capacity up), or, when m
// arrived as JSON (section nil), its encoding. Other algorithms keep
// no lineage, so it returns nil for them.
func parkedSection(spec *runSpec, m *matrix.Matrix, section []byte) []byte {
	if spec.algorithm != AlgoFLOC {
		return nil
	}
	if section == nil {
		return matrix.EncodeBinary(m)
	}
	base := make([]byte, len(section))
	copy(base, section)
	return base
}

// build decodes the base section and replays the log onto it: the
// dense matrix at the log's head, which must be version (the job's
// matrixVersion; the log cannot move while the job is live). The
// backing is decoded at the head's row count, so replaying appended
// rows never reallocates it.
func (ln *lineage) build(version int) (*matrix.Matrix, error) {
	m, err := matrix.DecodeBinaryCap(ln.base, 0, ln.log.Rows())
	if err != nil {
		return nil, fmt.Errorf("decoding the lineage's base section: %w", err)
	}
	head, err := ln.log.ApplyTo(m, 0)
	if err != nil {
		return nil, err
	}
	if head != version {
		return nil, fmt.Errorf("lineage log is at version %d, the job expects %d", head, version)
	}
	return m, nil
}

func newJobStore(seed int64, ttl time.Duration, now func() time.Time) *store {
	return &store{
		rng:      stats.NewRNG(seed),
		ttl:      ttl,
		now:      now,
		jobs:     make(map[string]*job),
		lineages: make(map[string]*lineage),
	}
}

// create registers a new queued root job running spec on m and returns
// its ID. base is the section its lineage parks as (parkedSection;
// nil keeps no lineage). IDs are drawn from the store's seeded RNG, so
// a server's ID sequence is a pure function of its seed — replayable
// in tests and log-correlatable across restarts with the same seed.
func (st *store) create(spec *runSpec, m *matrix.Matrix, base []byte) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var id string
	for {
		id = fmt.Sprintf("j%016x", uint64(st.rng.Int63()))
		if !st.takenLocked(id) {
			break
		}
	}
	st.addRootLocked(id, spec, m, base, nil)
	return id
}

// createWithID registers a queued job under a caller-chosen ID — the
// coordinator dispatch path, where IDs are minted (and consistent-
// hashed to an owner) upstream. log, when non-nil, holds the recorded
// patches already replayed onto m, and becomes the lineage's log. It
// reports false when the ID is already taken, which is what keeps a
// retried dispatch idempotent: the second attempt observes the first
// instead of double-running.
func (st *store) createWithID(id string, spec *runSpec, m *matrix.Matrix, base []byte, log *stream.Log) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.takenLocked(id) {
		return false
	}
	st.addRootLocked(id, spec, m, base, log)
	return true
}

// takenLocked reports whether id names a stored job or the root of a
// live lineage (whose root record may be evicted before its children);
// a new root must not join either.
func (st *store) takenLocked(id string) bool {
	_, job := st.jobs[id]
	_, root := st.lineages[id]
	return job || root
}

// addRootLocked stores a queued root record: the job heads its own
// lineage, which parks as base plus log (a fresh log when nil), and
// baseRows pins the matrix row count its engine will see.
func (st *store) addRootLocked(id string, spec *runSpec, m *matrix.Matrix, base []byte, log *stream.Log) {
	j := &job{
		id:      id,
		spec:    spec,
		m:       m,
		state:   StateQueued,
		created: st.now(),
		lineage: id,
	}
	if m != nil {
		j.baseRows = m.Rows()
	}
	if base != nil {
		if log == nil {
			log = stream.NewLog(m.Rows(), m.Cols())
		}
		st.lineages[id] = &lineage{base: base, log: log}
		j.matrixVersion = log.Version()
	}
	st.jobs[id] = j
}

// drop removes a job outright (submission rollback when the queue
// rejects it).
func (st *store) drop(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictLocked(id)
}

// evictLocked removes a job record and, when it was the lineage's last
// record, the lineage's mutation log with it.
func (st *store) evictLocked(id string) {
	j := st.jobs[id]
	if j == nil {
		return
	}
	delete(st.jobs, id)
	if _, held := st.lineages[j.lineage]; !held {
		return
	}
	//deltavet:ignore maporder reason=order-independent existence scan; returns on any lineage sibling, no per-entry effects
	for _, other := range st.jobs {
		if other.lineage == j.lineage {
			return
		}
	}
	delete(st.lineages, j.lineage)
}

// lineageBusyLocked reports whether any job of the lineage is queued
// or running — the state in which the log must not grow and no second
// recluster may start.
func (st *store) lineageBusyLocked(lineage string) bool {
	//deltavet:ignore maporder reason=order-independent existence scan; any non-terminal lineage member answers true, no per-entry effects
	for _, j := range st.jobs {
		if j.lineage == lineage && !j.state.terminal() {
			return true
		}
	}
	return false
}

// spec returns the job's immutable run plan, or nil if the job is
// gone.
func (st *store) specOf(id string) *runSpec {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return nil
	}
	return j.spec
}

// start transitions a queued job to running, recording the engine's
// cancel function. It reports false — and does not transition — when
// the job is gone or no longer queued (e.g. cancelled while waiting),
// or when cancellation was requested before the worker picked it up.
func (st *store) start(id string, cancel context.CancelFunc) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil || j.state != StateQueued || j.cancelRequested {
		return false
	}
	j.state = StateRunning
	j.started = st.now()
	j.cancel = cancel
	return true
}

// head returns the dense matrix the running job id runs on. A job that
// arrived without one — a recluster child of a parked lineage — has it
// built here, on the calling worker goroutine and outside the store
// lock: the lineage's base section is immutable and its log cannot
// grow while the job runs, so the build reads both lock-free. The
// built matrix is then held on the job record until the job settles.
func (st *store) head(id string) (*matrix.Matrix, error) {
	st.mu.Lock()
	j := st.jobs[id]
	if j == nil {
		st.mu.Unlock()
		return nil, fmt.Errorf("job %s is gone", id)
	}
	if j.m != nil {
		m := j.m
		st.mu.Unlock()
		return m, nil
	}
	ln, version := st.lineages[j.lineage], j.matrixVersion
	st.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("job %s has no matrix", id)
	}
	m, err := ln.build(version)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	if !j.state.terminal() {
		j.m = m
	}
	st.mu.Unlock()
	return m, nil
}

// finish moves a job to a terminal state with its outcome. The
// engine's cancel function is dropped; the caller releases the
// context. Finishing a job that was already terminal or evicted is a
// no-op.
func (st *store) finish(id string, state JobState, result *ResultView, errMsg string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil || j.state.terminal() {
		return
	}
	j.state = state
	j.finished = st.now()
	j.result = result
	j.errMsg = errMsg
	j.cancel = nil
	st.settleLocked(j)
}

// settleLocked completes a job's terminal transition. It drops the
// job's dense matrix: its lineage (at most one job of which is ever
// queued or running) is idle now and keeps only its base section and
// log, which already hold everything, so nothing is encoded; a
// non-FLOC job has no lineage and nothing will read its matrix again.
// It also appends the job to the expiry FIFO (with no TTL nothing ever
// expires, so nothing is queued either).
func (st *store) settleLocked(j *job) {
	j.m = nil
	if st.ttl <= 0 {
		return
	}
	st.done = append(st.done, doneEntry{id: j.id, at: j.finished})
}

// requestCancel marks the job cancelled-on-request. A queued job
// becomes terminal immediately (the worker will skip it; fromQueue
// reports that transition so the caller can count it); a running job
// has its engine context cancelled and keeps state "running" until
// the engine returns. The returned view reflects the post-request
// state; ok is false when the job is gone.
func (st *store) requestCancel(id string) (view JobView, fromQueue, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return JobView{}, false, false
	}
	if !j.state.terminal() {
		j.cancelRequested = true
		if j.state == StateQueued {
			j.state = StateCancelled
			j.finished = st.now()
			j.errMsg = "cancelled before start"
			st.settleLocked(j)
			fromQueue = true
		} else if j.cancel != nil {
			j.cancel()
		}
	}
	return j.viewLocked(), fromQueue, true
}

// setProgress records a running job's live position.
func (st *store) setProgress(id string, p ProgressView) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j := st.jobs[id]; j != nil {
		j.progress = p
		j.hasProgress = true
	}
}

// setCheckpoint records the job's latest resumable checkpoint —
// periodic boundary checkpoints while the run is live (CheckpointEvery)
// and the final boundary state of an interrupted attempt. It ignores a
// checkpoint older than the stored one, so a stale write racing a
// fresher boundary can never regress the replication stream.
func (st *store) setCheckpoint(id string, ck *floc.Checkpoint) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return
	}
	if j.checkpoint != nil && ck.Iterations < j.checkpoint.Iterations {
		return
	}
	j.checkpoint = ck
}

// latestCheckpoint returns the job's most recent resumable checkpoint,
// nil when none exists (job gone, non-FLOC, or not yet past a
// periodic boundary while running). Checkpoints are immutable once exported,
// so the caller may encode the result outside the store lock.
func (st *store) latestCheckpoint(id string) *floc.Checkpoint {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return nil
	}
	return j.checkpoint
}

// cancelAllActive requests cancellation of every non-terminal job:
// queued jobs become cancelled immediately, running jobs have their
// engine contexts cancelled and settle when the engine returns. This
// is the admin-drain path — the node stays up and keeps serving
// reads, but every job is pushed to a checkpointed stop so the
// coordinator can migrate it. It returns how many jobs were cancelled
// straight out of the queue and how many running engines were asked to
// stop (the split the metrics counters need).
func (st *store) cancelAllActive() (queued, running int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make([]string, 0, len(st.jobs))
	for id := range st.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := st.jobs[id]
		switch j.state {
		case StateQueued:
			j.cancelRequested = true
			j.state = StateCancelled
			j.finished = st.now()
			j.errMsg = "cancelled by drain before start"
			st.settleLocked(j)
			queued++
		case StateRunning:
			j.cancelRequested = true
			if j.cancel != nil {
				j.cancel()
			}
			running++
		}
	}
	return queued, running
}

// cancelRequested reports whether the job was asked to stop.
func (st *store) cancelRequestedOf(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	return j != nil && j.cancelRequested
}

// view snapshots a job for JSON rendering, evicting it first if its
// TTL expired — the caller then sees the same 404 an earlier sweep
// would have produced.
func (st *store) view(id string) (JobView, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return JobView{}, false
	}
	if st.expiredLocked(j) {
		st.evictLocked(id)
		return JobView{}, false
	}
	return j.viewLocked(), true
}

// result returns the job's result view, with the same lazy eviction
// as view.
func (st *store) result(id string) (res *ResultView, view JobView, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return nil, JobView{}, false
	}
	if st.expiredLocked(j) {
		st.evictLocked(id)
		return nil, JobView{}, false
	}
	return j.result, j.viewLocked(), true
}

// sweep evicts every terminal job whose TTL expired. It pops the
// expiry FIFO from the front — entries are in finish-time order, so
// the scan stops at the first entry still inside the TTL. Amortized
// cost per sweep is O(evictions), independent of table size; the old
// implementation sorted every stored job ID on every submission.
// Eviction order still follows finish-time order deterministically.
func (st *store) sweep() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ttl <= 0 {
		return
	}
	now := st.now()
	for st.doneHead < len(st.done) {
		e := st.done[st.doneHead]
		if now.Sub(e.at) <= st.ttl {
			break
		}
		st.doneHead++
		// Re-check through the jobs map: lazy eviction may have removed
		// the job already, and an evicted ID could in principle have
		// been re-minted for a fresher job (which then owns its own
		// FIFO entry).
		if j := st.jobs[e.id]; j != nil && st.expiredLocked(j) {
			st.evictLocked(e.id)
		}
	}
	if st.doneHead > 0 && st.doneHead*2 >= len(st.done) {
		n := copy(st.done, st.done[st.doneHead:])
		st.done = st.done[:n]
		st.doneHead = 0
	}
}

// matrixGauges reports how many dense matrices the store holds (one
// per queued or running job that has its matrix; a lineage holds at
// most one) and the bytes of the lineages' base sections, which every
// lineage keeps whether busy or idle.
func (st *store) matrixGauges() (dense, parkedBytes int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	//deltavet:ignore maporder reason=order-independent tally; addition commutes, no per-entry effects
	for _, j := range st.jobs {
		if j.m != nil {
			dense++
		}
	}
	//deltavet:ignore maporder reason=order-independent tally; addition commutes, no per-entry effects
	for _, ln := range st.lineages {
		parkedBytes += len(ln.base)
	}
	return dense, parkedBytes
}

// countByState tallies the stored (non-evicted) jobs per state.
func (st *store) countByState() map[JobState]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	counts := make(map[JobState]int)
	//deltavet:ignore maporder reason=order-independent tally; addition commutes, no per-entry effects
	for _, j := range st.jobs {
		counts[j.state]++
	}
	return counts
}

// cancelAllRunning cancels the engine context of every running job
// and marks the cancellation as requested (shutdown drain expiry).
func (st *store) cancelAllRunning() {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make([]string, 0, len(st.jobs))
	for id := range st.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := st.jobs[id]
		if j.state == StateRunning {
			j.cancelRequested = true
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
}

// expiredLocked reports whether a terminal job has outlived the TTL.
func (st *store) expiredLocked(j *job) bool {
	return st.ttl > 0 && j.state.terminal() && st.now().Sub(j.finished) > st.ttl
}

// viewLocked renders the job; the store lock must be held.
func (j *job) viewLocked() JobView {
	v := JobView{
		ID:              j.id,
		State:           j.state,
		Algorithm:       j.spec.algorithm,
		Created:         j.created,
		Error:           j.errMsg,
		CancelRequested: j.cancelRequested,
		ParentID:        j.parent,
		MatrixVersion:   j.matrixVersion,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.hasProgress {
		p := j.progress
		v.Progress = &p
	}
	return v
}

// patchOutcome describes a committed lineage matrix mutation.
type patchOutcome struct {
	jobID   string
	lineage string
	version int
	rows    int
	cols    int
}

// patchMatrix commits a mutation batch to the lineage log of the
// addressed job — the PATCH /v1/jobs/{id}/matrix core. The log
// validates the batch in full, so nothing is decoded, grown or
// mirrored: the next job of the lineage replays the log onto its base
// section when it starts. The whole check-and-append is one critical
// section: lineage idleness is decided under the same lock that gates
// job creation and start, so a concurrent recluster and PATCH
// serialize and the loser observes the winner (409), never a torn
// head.
func (st *store) patchMatrix(id string, mu stream.Mutation) (patchOutcome, *apiError) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil || st.expiredLocked(j) {
		if j != nil {
			st.evictLocked(id)
		}
		return patchOutcome{}, &apiError{status: 404, code: CodeNotFound, message: "no such job: " + id}
	}
	ln := st.lineages[j.lineage]
	if j.spec.algorithm != AlgoFLOC || ln == nil {
		return patchOutcome{}, badRequest("matrix streaming is only supported for floc jobs")
	}
	if st.lineageBusyLocked(j.lineage) {
		return patchOutcome{}, &apiError{
			status:  409,
			code:    CodeLineageBusy,
			message: "lineage " + j.lineage + " has a queued or running job; the matrix cannot mutate under it",
		}
	}
	version, err := ln.log.Append(mu)
	if err != nil {
		return patchOutcome{}, badRequest(err.Error())
	}
	return patchOutcome{
		jobID:   id,
		lineage: j.lineage,
		version: version,
		rows:    ln.log.Rows(),
		cols:    ln.log.Cols(),
	}, nil
}

// beginRecluster creates the queued warm-start child of a completed
// job — the POST /v1/jobs/{id}:recluster core. The parent must be a
// done FLOC job, which always holds a final checkpoint (the seed
// checkpoint when it converged in seeding), and the lineage must be
// idle; the child runs on the lineage's head (built from the base
// section and log when it starts), a single attempt under the
// checkpoint's seed, and warm-starts with ParentRows pinned to the row
// count the parent's engine saw. childID may be
// caller-chosen (coordinator dispatch); redelivering the same childID
// for the same parent observes the existing child instead of
// double-running; created reports whether this call registered the
// child (false on redelivery — the caller must not enqueue twice).
func (st *store) beginRecluster(parentID, childID string) (view JobView, warmIter int, created bool, aerr *apiError) {
	st.mu.Lock()
	defer st.mu.Unlock()
	parent := st.jobs[parentID]
	if parent == nil || st.expiredLocked(parent) {
		if parent != nil {
			st.evictLocked(parentID)
		}
		return JobView{}, 0, false, &apiError{status: 404, code: CodeNotFound, message: "no such job: " + parentID}
	}
	ln := st.lineages[parent.lineage]
	if parent.spec.algorithm != AlgoFLOC || ln == nil {
		return JobView{}, 0, false, badRequest("recluster is only supported for floc jobs")
	}
	if existing := st.jobs[childID]; childID != "" && existing != nil {
		if existing.parent == parentID {
			return existing.viewLocked(), 0, false, nil
		}
		return JobView{}, 0, false, badRequest("job ID already in use: " + childID)
	}
	if parent.state != StateDone {
		return JobView{}, 0, false, &apiError{
			status:  409,
			code:    CodeJobNotDone,
			message: fmt.Sprintf("job %s is %s; only a done job can be reclustered", parentID, parent.state),
		}
	}
	ck := parent.finalCheckpoint
	if st.lineageBusyLocked(parent.lineage) {
		return JobView{}, 0, false, &apiError{
			status:  409,
			code:    CodeLineageBusy,
			message: "lineage " + parent.lineage + " already has a queued or running job",
		}
	}

	cfg := parent.spec.floc
	cfg.Seed = ck.Seed // the warm engine continues the parent's counted RNG stream
	spec := &runSpec{
		algorithm: AlgoFLOC,
		floc:      cfg,
		attempts:  1,
		deadline:  parent.spec.deadline,
		start:     &floc.WarmStart{Checkpoint: ck, ParentRows: parent.baseRows},
	}
	id := childID
	if id == "" {
		for {
			id = fmt.Sprintf("j%016x", uint64(st.rng.Int63()))
			if _, taken := st.jobs[id]; !taken {
				break
			}
		}
	}
	child := &job{
		id:            id,
		spec:          spec,
		state:         StateQueued,
		created:       st.now(),
		parent:        parentID,
		lineage:       parent.lineage,
		baseRows:      ln.log.Rows(),
		matrixVersion: ln.log.Version(),
	}
	st.jobs[id] = child
	return child.viewLocked(), ck.Iterations, true, nil
}

// setFinalCheckpoint records a completed FLOC job's final iteration
// boundary — the handle a later recluster warm-starts from.
func (st *store) setFinalCheckpoint(id string, ck *floc.Checkpoint) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j := st.jobs[id]; j != nil {
		j.finalCheckpoint = ck
	}
}
