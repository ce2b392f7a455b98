// Batch submission: POST /v1/jobs:batch carries many small matrices
// in one request — one HTTP round-trip and one decode pass instead of
// N, with per-item outcomes so a partial refusal (one invalid matrix,
// or the queue filling mid-batch) never poisons the rest.

package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// MaxBatchJobs bounds how many submissions one batch may carry. The
// body size cap already bounds total bytes; this bounds per-item
// bookkeeping and keeps one batch from monopolizing the queue.
const MaxBatchJobs = 256

// BatchSubmitRequest is the body of POST /v1/jobs:batch.
type BatchSubmitRequest struct {
	// Jobs are the submissions, validated and enqueued in order. Item
	// outcomes are independent: an invalid or refused item does not
	// fail its neighbors.
	Jobs []SubmitRequest `json:"jobs"`
}

// BatchItemView is the per-item outcome of a batch submission.
type BatchItemView struct {
	// Index is the item's position in the request's jobs array.
	Index int `json:"index"`

	// Status is the HTTP status this item would have received as a
	// standalone POST /v1/jobs: 202 accepted, 400 invalid, 429 queue
	// full, 503 draining.
	Status int `json:"status"`

	// Job is the accepted job's view (Status 202 only).
	Job *JobView `json:"job,omitempty"`

	// Error is the refusal detail (non-202 only).
	Error *ErrorDetail `json:"error,omitempty"`
}

// BatchSubmitResponse is the body of POST /v1/jobs:batch.
type BatchSubmitResponse struct {
	Accepted int             `json:"accepted"`
	Rejected int             `json:"rejected"`
	Jobs     []BatchItemView `json:"jobs"`
}

// handleSubmitBatch validates and enqueues every submission of the
// batch independently. The top-level status is 202 when at least one
// item was accepted; otherwise the dominant refusal: 429 (+
// Retry-After) when the queue refused items, 503 when draining
// refused them, else 400.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req BatchSubmitRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding batch: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "batch: jobs is empty")
		return
	}
	if len(req.Jobs) > MaxBatchJobs {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"batch carries %d jobs; the server caps batches at %d", len(req.Jobs), MaxBatchJobs)
		return
	}

	// One sweep for the whole batch — the point of batching is one
	// pass over the fixed costs.
	s.store.sweep()

	resp := BatchSubmitResponse{Jobs: make([]BatchItemView, len(req.Jobs))}
	sawQueueFull, sawDraining := false, false
	for i := range req.Jobs {
		item := &resp.Jobs[i]
		item.Index = i
		spec, aerr := s.buildSpec(&req.Jobs[i])
		if aerr == nil {
			id := s.store.create(spec)
			view, _ := s.store.view(id) // before the enqueue, as in handleSubmit
			if aerr = s.tryEnqueue(id); aerr == nil {
				item.Status = http.StatusAccepted
				item.Job = &view
				resp.Accepted++
				continue
			}
		}
		item.Status = aerr.status
		item.Error = &ErrorDetail{Code: aerr.code, Message: aerr.message}
		resp.Rejected++
		switch aerr.code {
		case CodeQueueFull:
			sawQueueFull = true
		case CodeDraining:
			sawDraining = true
		}
	}

	status := http.StatusAccepted
	if resp.Accepted == 0 {
		switch {
		case sawQueueFull:
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
		case sawDraining:
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusBadRequest
		}
	}
	writeJSON(w, status, resp)
}
