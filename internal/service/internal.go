// This file is the coordinator-facing surface of a deltaserve
// backend. Everything under /v1/internal is spoken between nodes, not
// by clients — dispatch with a pre-minted job ID (and optionally a
// resume checkpoint), checkpoint download for replication, and the
// peer-replica table failover reads from when an owner is gone.

package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stream"
)

// DispatchRequest is the body of POST /v1/internal/jobs: a validated
// submission to run under a caller-chosen ID, optionally resuming a
// FLOC run from a replicated checkpoint instead of seeding fresh.
type DispatchRequest struct {
	// ID is the job ID to register. The coordinator mints it, hashes it
	// onto the ring, and rewrites it across migrations, so the backend
	// only checks it is present and sane.
	ID string `json:"id"`

	// ResumeCheckpoint, when set, is the DCKP encoding (base64 in
	// JSON) of the boundary to resume from. Only valid for FLOC
	// submissions; the job then runs exactly one attempt whose seed is
	// the checkpoint's, which is what makes the resumed trajectory
	// bit-identical to the interrupted one.
	ResumeCheckpoint []byte `json:"resume_dckp,omitempty"`

	// Patches are deltastream mutation batches replayed, in order, onto
	// the submitted matrix before the job runs — the coordinator's
	// lineage-reconstruction path: original submission + recorded
	// patches rebuilds the patched matrix bit for bit on any backend.
	// The backend seeds the job's lineage mutation log with them.
	Patches []MatrixPatchRequest `json:"patches,omitempty"`

	// WarmStartCheckpoint, when set, is the DCKP encoding of a parent
	// run's boundary to warm-start from — the recluster failover path.
	// The checkpoint must have been cut on the matrix as submitted
	// (before Patches); the run then re-anchors its clustering on the
	// patched matrix and pays only corrective iterations. Mutually
	// exclusive with ResumeCheckpoint; FLOC only; single attempt under
	// the checkpoint's seed.
	WarmStartCheckpoint []byte `json:"warm_dckp,omitempty"`

	// Submit is the original client submission, verbatim.
	Submit SubmitRequest `json:"submit"`
}

// DispatchResponse is the body of a successful dispatch.
type DispatchResponse struct {
	Job JobView `json:"job"`

	// ResumedFromIteration reports the checkpoint boundary the job was
	// resumed at (0 for a fresh start) — the coordinator's
	// zero-recompute audit trail.
	ResumedFromIteration int `json:"resumed_from_iteration,omitempty"`

	// WarmFromIteration reports the parent boundary a warm-started
	// dispatch re-anchored (0 for a cold start).
	WarmFromIteration int `json:"warm_from_iteration,omitempty"`

	// MatrixVersion is the job's lineage mutation-log version after
	// replaying the dispatched patches.
	MatrixVersion int `json:"matrix_version,omitempty"`
}

// handleDispatch is POST /v1/internal/jobs: coordinator-driven
// submission. It is idempotent over the ID — redelivering a dispatch
// (a retry after a lost response) observes the existing job instead of
// double-running it.
func (s *Server) handleDispatch(w http.ResponseWriter, r *http.Request) {
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		s.handleDispatchBinary(w, r)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req DispatchRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding dispatch: %v", err)
		return
	}
	s.dispatchCore(w, &req, nil, nil)
}

// dispatchCore runs a decoded dispatch. m, when non-nil, is the
// already-decoded matrix of a binary dispatch and section the DCMX
// bytes it came from; nil means the matrix rides inside
// req.Submit.Matrix as usual.
func (s *Server) dispatchCore(w http.ResponseWriter, req *DispatchRequest, m *matrix.Matrix, section []byte) {
	if req.ID == "" || len(req.ID) > 128 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"dispatch id must be 1–128 bytes, got %d", len(req.ID))
		return
	}
	var spec *runSpec
	var aerr *apiError
	if m != nil {
		spec, aerr = s.planRun(&req.Submit)
	} else {
		spec, m, aerr = s.buildSpec(&req.Submit)
	}
	if aerr != nil {
		writeError(w, aerr.status, aerr.code, "%s", aerr.message)
		return
	}
	if len(req.ResumeCheckpoint) > 0 && len(req.WarmStartCheckpoint) > 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"resume_dckp and warm_dckp are mutually exclusive")
		return
	}
	resumedFrom := 0
	if len(req.ResumeCheckpoint) > 0 {
		if spec.algorithm != AlgoFLOC {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				"resume_dckp is only valid for floc jobs, not %q", spec.algorithm)
			return
		}
		ck, err := floc.DecodeCheckpoint(req.ResumeCheckpoint)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadCheckpoint, "resume_dckp: %v", err)
			return
		}
		// The resumed run is the interrupted attempt, continued: one
		// attempt, seeded exactly as the checkpoint records. The
		// supervisor's multi-attempt ladder cannot be rejoined mid-
		// campaign, so the dispatcher only attaches checkpoints to
		// single-attempt jobs.
		spec.start, spec.resumed = &floc.WarmStart{Checkpoint: ck}, true
		spec.attempts = 1
		spec.floc.Seed = ck.Seed
		resumedFrom = ck.Iterations
	}

	// Replay recorded lineage patches onto the freshly parsed matrix —
	// deterministic, so the reconstructed matrix is bit-identical to
	// the one the original backend held. The log validates every patch
	// before any is applied; the lineage then parks the matrix as
	// submitted plus this log, as the original backend does. ParentRows
	// for a warm start is the pre-patch row count: the checkpoint was
	// cut on the matrix as submitted.
	base := parkedSection(spec, m, section)
	var lineageLog *stream.Log
	parentRows := m.Rows()
	if len(req.Patches) > 0 {
		if spec.algorithm != AlgoFLOC {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				"patches are only valid for floc jobs, not %q", spec.algorithm)
			return
		}
		lineageLog = stream.NewLog(m.Rows(), m.Cols())
		for i := range req.Patches {
			if _, err := lineageLog.Append(req.Patches[i].mutation()); err != nil {
				writeError(w, http.StatusBadRequest, CodeInvalidRequest,
					"replaying patch %d: %v", i+1, err)
				return
			}
		}
		if _, err := lineageLog.ApplyTo(m, 0); err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, "replaying patches: %v", err)
			return
		}
	}
	warmFrom := 0
	if len(req.WarmStartCheckpoint) > 0 {
		if spec.algorithm != AlgoFLOC {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				"warm_dckp is only valid for floc jobs, not %q", spec.algorithm)
			return
		}
		ck, err := floc.DecodeCheckpoint(req.WarmStartCheckpoint)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadCheckpoint, "warm_dckp: %v", err)
			return
		}
		spec.start = &floc.WarmStart{Checkpoint: ck, ParentRows: parentRows}
		spec.attempts = 1
		spec.floc.Seed = ck.Seed
		warmFrom = ck.Iterations
	}

	s.store.sweep()
	if !s.store.createWithID(req.ID, spec, m, base, lineageLog) {
		// Idempotent redelivery: the job already exists; report it.
		view, ok := s.store.view(req.ID)
		if !ok {
			writeError(w, http.StatusConflict, CodeInvalidRequest,
				"job %q existed but was evicted mid-dispatch; retry", req.ID)
			return
		}
		writeJSON(w, http.StatusOK, DispatchResponse{Job: view})
		return
	}
	view, _ := s.store.view(req.ID) // before the enqueue, as in handleSubmit
	if !s.enqueue(w, req.ID) {
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+req.ID)
	resp := DispatchResponse{Job: view, ResumedFromIteration: resumedFrom, WarmFromIteration: warmFrom}
	if lineageLog != nil {
		resp.MatrixVersion = lineageLog.Version()
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// checkpointIterationsHeader carries the boundary iteration count of a
// checkpoint response, so pollers can track freshness without decoding
// the body.
const checkpointIterationsHeader = "X-Deltaserve-Checkpoint-Iterations"

// handleJobCheckpoint serves the job's latest resumable checkpoint as
// DCKP bytes. The ETag is the boundary iteration count; a conditional
// GET with a matching If-None-Match returns 304 so the coordinator's
// replication loop costs one cheap round-trip per poll when nothing
// advanced.
func (s *Server) handleJobCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ck := s.store.latestCheckpoint(id)
	if ck == nil {
		writeError(w, http.StatusNotFound, CodeNoCheckpoint,
			"job %q has no resumable checkpoint (unknown job, non-floc, or no boundary yet)", id)
		return
	}
	etag := `"` + strconv.Itoa(ck.Iterations) + `"`
	if r.Header.Get("If-None-Match") == etag {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, err := floc.EncodeCheckpoint(ck)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "encoding checkpoint: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", etag)
	w.Header().Set(checkpointIterationsHeader, strconv.Itoa(ck.Iterations))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		// Mid-body network failure; the poller retries.
		s.logf("deltaserve: writing checkpoint response for %s: %v", id, err)
	}
}

// handleReplicaPutCheckpoint stores a checkpoint replica for a job
// owned by a peer backend. The body must decode as a valid DCKP
// envelope — a torn or hostile replica is rejected at the door, never
// stored, never resumed from. Stale replicas (older boundary than
// held) are acknowledged but not stored.
func (s *Server) handleReplicaPutCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
				"checkpoint exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "reading checkpoint body: %v", err)
		return
	}
	ck, err := floc.DecodeCheckpoint(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadCheckpoint, "replica checkpoint: %v", err)
		return
	}
	stored := s.replicas.putCheckpoint(id, data, ck.Iterations)
	writeJSON(w, http.StatusOK, map[string]any{
		"stored":     stored,
		"iterations": ck.Iterations,
	})
}

// handleReplicaGetCheckpoint returns a held checkpoint replica.
func (s *Server) handleReplicaGetCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, data, iterations, ok := s.replicas.get(id)
	if !ok || data == nil {
		writeError(w, http.StatusNotFound, CodeNoCheckpoint, "no checkpoint replica for job %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(checkpointIterationsHeader, strconv.Itoa(iterations))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		s.logf("deltaserve: writing checkpoint replica response for %s: %v", id, err)
	}
}

// handleReplicaPutMeta stores a job-metadata replica (opaque JSON the
// coordinator writes at submission and reads back during failover).
func (s *Server) handleReplicaPutMeta(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
				"metadata exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "reading metadata body: %v", err)
		return
	}
	if !json.Valid(data) {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "metadata replica must be valid JSON")
		return
	}
	s.replicas.putMeta(id, data)
	writeJSON(w, http.StatusOK, map[string]any{"stored": true})
}

// handleReplicaGetMeta returns a held metadata replica.
func (s *Server) handleReplicaGetMeta(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, _, _, ok := s.replicas.get(id)
	if !ok || meta == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "no metadata replica for job %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(meta); err != nil {
		s.logf("deltaserve: writing metadata replica response for %s: %v", id, err)
	}
}

// handleReplicaDelete drops a job's replicated state — coordinator
// cleanup once a job is terminal and fetched.
func (s *Server) handleReplicaDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	writeJSON(w, http.StatusOK, map[string]any{"deleted": s.replicas.drop(id)})
}
