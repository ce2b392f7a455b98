package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"deltacluster/internal/bicluster"
	"deltacluster/internal/clique"
	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
)

// Algorithm names accepted by SubmitRequest.
const (
	AlgoFLOC      = "floc"
	AlgoBicluster = "bicluster"
	AlgoClique    = "clique"
)

// SubmitRequest is the body of POST /v1/jobs: one matrix, one
// algorithm, and that algorithm's parameters. Unknown fields are
// rejected, so typos surface as 400s instead of silently running a
// default configuration.
type SubmitRequest struct {
	// Algorithm selects the engine: "floc" (default), "bicluster"
	// (Cheng & Church) or "clique".
	Algorithm string `json:"algorithm,omitempty"`

	// Matrix is the data, inline. Exactly one of its encodings must be
	// set.
	Matrix MatrixPayload `json:"matrix"`

	// FLOC, Bicluster and Clique hold the per-algorithm parameters;
	// only the block matching Algorithm is consulted.
	FLOC      *FLOCParams      `json:"floc,omitempty"`
	Bicluster *BiclusterParams `json:"bicluster,omitempty"`
	Clique    *CliqueParams    `json:"clique,omitempty"`

	// DeadlineMillis, when positive, bounds the job's wall-clock run
	// time. An expired deadline stops the engine within one iteration;
	// FLOC jobs then report their best-so-far clustering as a partial
	// result. 0 falls back to the server's default deadline.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// MatrixPayload carries the input matrix either as dense JSON rows
// (null marks a missing entry) or as delimited text. Large matrices
// are better submitted through the binary transport (see
// Content-Type application/x-deltacluster-matrix in server.go), which
// skips JSON float parsing entirely.
type MatrixPayload struct {
	// Rows is the dense encoding: one array per object, one number per
	// attribute, null for missing values. It is held raw and decoded
	// row-by-row straight into the matrix builder — no [][]*float64
	// materialization. Use RowsJSON to construct it client-side.
	Rows json.RawMessage `json:"rows,omitempty"`

	// CSV is the text encoding, parsed exactly like cmd/floc input
	// (comma-separated, empty cells missing).
	CSV string `json:"csv,omitempty"`
}

// RowsJSON renders dense rows as the "rows" payload encoding, with
// NaN entries encoded as null — the client-side complement of the
// server's streaming rows decoder. Values must be finite or NaN.
func RowsJSON(rows [][]float64) json.RawMessage {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, r := range rows {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('[')
		for j, v := range r {
			if j > 0 {
				buf.WriteByte(',')
			}
			if math.IsNaN(v) {
				buf.WriteString("null")
			} else {
				b := buf.AvailableBuffer()
				buf.Write(strconv.AppendFloat(b, v, 'g', -1, 64))
			}
		}
		buf.WriteByte(']')
	}
	buf.WriteByte(']')
	return buf.Bytes()
}

// FLOCParams mirrors the floc.Config knobs the service exposes.
type FLOCParams struct {
	K             int     `json:"k"`
	Delta         float64 `json:"delta"`
	Seed          int64   `json:"seed,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
	Order         string  `json:"order,omitempty"`   // fixed | random | weighted
	Seeding       string  `json:"seeding,omitempty"` // random | anchored | auto
	Occupancy     float64 `json:"occupancy,omitempty"`

	// Workers shards each decide phase of the run across this many
	// goroutines; 0 means all cores. The worker count never affects
	// the result — runs are bit-identical at any value — so this is
	// purely a latency knob. The server clamps it to GOMAXPROCS
	// (extra workers cannot help and would only cost scheduling).
	Workers int `json:"workers,omitempty"`

	// Attempts is the number of supervised restart attempts (attempt i
	// runs with seed Seed+i; the best clustering wins). Defaults to 1.
	Attempts int `json:"attempts,omitempty"`
}

// BiclusterParams mirrors the bicluster.Config knobs.
type BiclusterParams struct {
	K     int     `json:"k"`
	Delta float64 `json:"delta"`
	Alpha float64 `json:"alpha,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
}

// CliqueParams mirrors the clique.Config knobs.
type CliqueParams struct {
	Xi      int     `json:"xi"`
	Tau     float64 `json:"tau"`
	MaxDims int     `json:"max_dims,omitempty"`
}

// SubmitResponse is the body of a successful POST /v1/jobs.
type SubmitResponse struct {
	Job JobView `json:"job"`
}

// JobView is the JSON representation of a job's current state.
type JobView struct {
	ID        string        `json:"id"`
	State     JobState      `json:"state"`
	Algorithm string        `json:"algorithm"`
	Created   time.Time     `json:"created"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Progress  *ProgressView `json:"progress,omitempty"`
	Error     string        `json:"error,omitempty"`

	// CancelRequested reports that DELETE (or server drain) asked the
	// job to stop; a running job keeps state "running" until the
	// engine actually returns.
	CancelRequested bool `json:"cancel_requested,omitempty"`

	// ParentID names the job this one was reclustered from; empty for
	// a root submission.
	ParentID string `json:"parent_id,omitempty"`

	// MatrixVersion is the lineage mutation-log version the job's
	// matrix reflects (0 = the matrix as originally submitted).
	MatrixVersion int `json:"matrix_version,omitempty"`
}

// ProgressView is the live position of a running FLOC job.
type ProgressView struct {
	// Attempt is the 1-based supervised attempt currently running.
	Attempt int `json:"attempt"`
	// Iteration counts improving iterations completed in this attempt.
	Iteration int `json:"iteration"`
	// AvgResidue is the attempt's best average residue so far.
	AvgResidue float64 `json:"avg_residue"`
}

// ResultView is the body of GET /v1/jobs/{id}/result.
type ResultView struct {
	Algorithm string `json:"algorithm"`

	// Partial reports a degraded result: the job was stopped (deadline
	// or cancellation) and this is the best clustering found so far.
	Partial bool `json:"partial,omitempty"`

	AvgResidue     float64       `json:"avg_residue,omitempty"`
	Iterations     int           `json:"iterations,omitempty"`
	BestSeed       int64         `json:"best_seed,omitempty"`
	Attempts       int           `json:"attempts,omitempty"`
	DurationMillis int64         `json:"duration_ms"`
	Clusters       []ClusterView `json:"clusters,omitempty"`

	// WarmStart reports the run re-converged from a parent job's final
	// checkpoint instead of cold seeding; Iterations then counts only
	// the corrective iterations after the delta.
	WarmStart bool `json:"warm_start,omitempty"`

	// Subspaces is set for clique jobs instead of Clusters.
	Subspaces []SubspaceView `json:"subspaces,omitempty"`
}

// ClusterView is one δ-cluster or bicluster of a result.
type ClusterView struct {
	Rows    []int   `json:"rows"`
	Cols    []int   `json:"cols"`
	Volume  int     `json:"volume"`
	Residue float64 `json:"residue"`
}

// SubspaceView is one CLIQUE subspace cluster.
type SubspaceView struct {
	Dims   []int `json:"dims"`
	Points []int `json:"points"`
}

// ErrorBody is the JSON error envelope every non-2xx response uses.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is one machine-readable error.
type ErrorDetail struct {
	// Code is a stable identifier: invalid_request, not_found,
	// queue_full, draining, job_not_done, job_failed, job_cancelled.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// Error codes of the API's error model.
const (
	CodeInvalidRequest = "invalid_request"
	CodeNotFound       = "not_found"
	CodeQueueFull      = "queue_full"
	CodeDraining       = "draining"
	CodeJobNotDone     = "job_not_done"
	CodeJobFailed      = "job_failed"
	CodeJobCancelled   = "job_cancelled"
	CodeInternal       = "internal"
	CodeNoCheckpoint   = "no_checkpoint"
	CodeBadCheckpoint  = "bad_checkpoint"

	// CodeLineageBusy rejects a matrix PATCH or recluster that races a
	// queued or running job on the same lineage: the shared matrix is
	// (about to be) under an engine, so the request is refused with 409
	// instead of silently mutating state under the run.
	CodeLineageBusy = "lineage_busy"
)

// apiError carries an HTTP status and a machine-readable code through
// the request-validation path.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.message }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: CodeInvalidRequest,
		message: fmt.Sprintf(format, args...)}
}

// runSpec is a validated, immutable run plan: the fully-resolved engine
// configuration. It never changes after planRun, so workers may read
// it without holding the store lock. The matrix is not part of it: the
// store holds a job's dense matrix only while the job is queued or
// running (job.m).
type runSpec struct {
	algorithm string
	floc      floc.Config
	attempts  int
	bic       bicluster.Config
	clq       clique.Config
	deadline  time.Duration

	// start, when non-nil, starts a FLOC job from a checkpoint instead
	// of seeding. Such jobs run exactly one attempt with the
	// checkpoint's seed. resumed says whose checkpoint it is: the job's
	// own (the coordinator's zero-recompute migration path, held to the
	// same matrix) or its parent's final one (the deltastream recluster
	// path; when the matrix has not changed since, the run is
	// bit-identical to the parent's).
	start   *floc.WarmStart
	resumed bool
}

// buildSpec validates a SubmitRequest against the server's limits and
// resolves it to a run plan and the parsed matrix. All failures are
// 400s with a message naming the offending field.
func (s *Server) buildSpec(req *SubmitRequest) (*runSpec, *matrix.Matrix, *apiError) {
	m, aerr := parseMatrix(&req.Matrix, s.opts.MaxMatrixEntries)
	if aerr != nil {
		return nil, nil, aerr
	}
	spec, aerr := s.planRun(req)
	return spec, m, aerr
}

// planRun is buildSpec without the matrix — what the binary transport
// path calls once it has decoded the DCMX section itself.
func (s *Server) planRun(req *SubmitRequest) (*runSpec, *apiError) {
	spec := &runSpec{attempts: 1}

	spec.deadline = s.opts.DefaultDeadline
	if req.DeadlineMillis < 0 {
		return nil, badRequest("deadline_ms = %d, want ≥ 0", req.DeadlineMillis)
	}
	if req.DeadlineMillis > 0 {
		spec.deadline = time.Duration(req.DeadlineMillis) * time.Millisecond
	}
	if max := s.opts.MaxDeadline; max > 0 && (spec.deadline == 0 || spec.deadline > max) {
		spec.deadline = max
	}

	algo := req.Algorithm
	if algo == "" {
		algo = AlgoFLOC
	}
	spec.algorithm = algo
	switch algo {
	case AlgoFLOC:
		p := req.FLOC
		if p == nil {
			return nil, badRequest("algorithm %q needs a \"floc\" parameter block", algo)
		}
		if p.K < 1 {
			return nil, badRequest("floc.k = %d, want ≥ 1", p.K)
		}
		if !(p.Delta > 0) {
			return nil, badRequest("floc.delta = %v, want > 0", p.Delta)
		}
		cfg := floc.DefaultConfig(p.K, p.Delta)
		cfg.Seed = p.Seed
		if p.Workers < 0 {
			return nil, badRequest("floc.workers = %d, want ≥ 0 (0 = all cores)", p.Workers)
		}
		cfg.Workers = p.Workers
		if max := runtime.GOMAXPROCS(0); cfg.Workers > max {
			// Transparent clamp: results are bit-identical at any
			// worker count, so capping only trims goroutine overhead.
			cfg.Workers = max
		}
		if p.MaxIterations < 0 {
			return nil, badRequest("floc.max_iterations = %d, want ≥ 0", p.MaxIterations)
		}
		if p.MaxIterations > 0 {
			cfg.MaxIterations = p.MaxIterations
		}
		if p.Occupancy < 0 || p.Occupancy > 1 {
			return nil, badRequest("floc.occupancy = %v, want in [0, 1]", p.Occupancy)
		}
		cfg.Constraints.Occupancy = p.Occupancy
		switch p.Order {
		case "", "weighted":
			cfg.Order = floc.WeightedRandomOrder
		case "random":
			cfg.Order = floc.RandomOrder
		case "fixed":
			cfg.Order = floc.FixedOrder
		default:
			return nil, badRequest("floc.order = %q, want fixed | random | weighted", p.Order)
		}
		switch p.Seeding {
		case "", "auto":
			cfg.SeedMode = floc.SeedAuto
		case "random":
			cfg.SeedMode = floc.SeedRandom
		case "anchored":
			cfg.SeedMode = floc.SeedAnchored
		default:
			return nil, badRequest("floc.seeding = %q, want random | anchored | auto", p.Seeding)
		}
		if p.Attempts < 0 {
			return nil, badRequest("floc.attempts = %d, want ≥ 0", p.Attempts)
		}
		if p.Attempts > 0 {
			spec.attempts = p.Attempts
		}
		spec.floc = cfg
	case AlgoBicluster:
		p := req.Bicluster
		if p == nil {
			return nil, badRequest("algorithm %q needs a \"bicluster\" parameter block", algo)
		}
		if p.K < 1 {
			return nil, badRequest("bicluster.k = %d, want ≥ 1", p.K)
		}
		if !(p.Delta >= 0) {
			return nil, badRequest("bicluster.delta = %v, want ≥ 0", p.Delta)
		}
		spec.bic = bicluster.Config{K: p.K, Delta: p.Delta, Alpha: p.Alpha, Seed: p.Seed}
	case AlgoClique:
		p := req.Clique
		if p == nil {
			return nil, badRequest("algorithm %q needs a \"clique\" parameter block", algo)
		}
		if p.Xi < 1 {
			return nil, badRequest("clique.xi = %d, want ≥ 1", p.Xi)
		}
		if !(p.Tau > 0 && p.Tau <= 1) {
			return nil, badRequest("clique.tau = %v, want in (0, 1]", p.Tau)
		}
		spec.clq = clique.Config{Xi: p.Xi, Tau: p.Tau, MaxDims: p.MaxDims}
	default:
		return nil, badRequest("algorithm = %q, want floc | bicluster | clique", algo)
	}
	return spec, nil
}

// parseMatrix decodes whichever matrix encoding the payload carries.
// Both encodings stream record-by-record into a matrix.Builder, so
// the peak footprint is one row plus the final matrix — never an
// intermediate [][]float64 — and MaxMatrixEntries is enforced as the
// matrix grows, before an oversized request pays its allocation.
func parseMatrix(p *MatrixPayload, maxEntries int) (*matrix.Matrix, *apiError) {
	hasRows := len(p.Rows) > 0 && !bytes.Equal(bytes.TrimSpace(p.Rows), []byte("null"))
	switch {
	case hasRows && p.CSV != "":
		return nil, badRequest("matrix: set exactly one of \"rows\" and \"csv\", not both")
	case hasRows:
		return parseRows(p.Rows, maxEntries)
	case p.CSV != "":
		b := matrix.NewBuilder(maxEntries)
		if err := matrix.ReadInto(b, strings.NewReader(p.CSV), matrix.IOOptions{}); err != nil {
			return nil, badRequest("matrix.csv: %v", err)
		}
		return b.Build(), nil
	default:
		return nil, badRequest("matrix: need \"rows\" or \"csv\"")
	}
}

// parseRows decodes the dense JSON encoding row-by-row. One []float64
// buffer is reused across rows: before each decode it is prefilled
// with NaN, and because encoding/json leaves a non-pointer element
// untouched when it decodes null, an explicit null lands as the NaN
// missing marker without boxing every cell through *float64. The
// first row can't use the trick (there is no prefilled backing array
// yet, and growth zero-fills), so it alone decodes through pointers.
func parseRows(raw json.RawMessage, maxEntries int) (*matrix.Matrix, *apiError) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	tok, err := dec.Token()
	if err != nil {
		return nil, badRequest("matrix.rows: %v", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, badRequest("matrix.rows: want an array of rows")
	}
	b := matrix.NewBuilder(maxEntries)
	cols := -1
	var buf []float64
	for i := 0; dec.More(); i++ {
		if cols < 0 {
			var first []*float64
			if err := dec.Decode(&first); err != nil {
				return nil, badRequest("matrix.rows[%d]: %v", i, err)
			}
			cols = len(first)
			if cols == 0 {
				return nil, badRequest("matrix.rows[0] is empty; need at least one column")
			}
			buf = make([]float64, cols)
			for j, v := range first {
				if v == nil {
					buf[j] = math.NaN()
					continue
				}
				if math.IsInf(*v, 0) || math.IsNaN(*v) {
					return nil, badRequest("matrix.rows[%d][%d] is not finite", i, j)
				}
				buf[j] = *v
			}
		} else {
			buf = buf[:cols]
			nan := math.NaN()
			for j := range buf {
				buf[j] = nan
			}
			if err := dec.Decode(&buf); err != nil {
				return nil, badRequest("matrix.rows[%d]: %v", i, err)
			}
			if len(buf) != cols {
				return nil, badRequest("matrix.rows[%d] has %d entries, want %d", i, len(buf), cols)
			}
		}
		if err := b.AppendRow(buf); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	if b.Rows() == 0 {
		return nil, badRequest("matrix: need \"rows\" or \"csv\"")
	}
	return b.Build(), nil
}

// codec is a pooled response encoder: one output buffer and a JSON
// encoder bound to it, reused across requests so the poll/result hot
// path allocates neither.
type codec struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var codecPool = sync.Pool{New: func() any {
	c := &codec{}
	c.enc = json.NewEncoder(&c.buf)
	c.enc.SetIndent("", "  ")
	return c
}}

// writeJSON renders v with the given status through a pooled codec,
// which also makes Content-Length exact. A value that fails to encode
// (only possible for non-finite floats, which the views never carry)
// degrades to a bare 500 — nothing partial ever reaches the wire.
//
// deltavet:hotpath — every response of the submit, poll, result and
// metrics paths funnels through here.
func writeJSON(w http.ResponseWriter, status int, v any) {
	c := codecPool.Get().(*codec)
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		//deltavet:ignore hotalloc reason=pooled codec recycle; Put boxes an existing pointer, no heap growth
		codecPool.Put(c)
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(c.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(c.buf.Bytes())
	//deltavet:ignore hotalloc reason=pooled codec recycle; Put boxes an existing pointer, no heap growth
	codecPool.Put(c)
}

// writeError renders the error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
