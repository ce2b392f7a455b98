// Package coord is the multi-node deltaserve coordinator: a stdlib-only
// front door that consistent-hashes jobs across N backend deltaserve
// processes, proxies the public /v1/jobs API, replicates job metadata
// and FLOC checkpoints to peer backends, and migrates jobs off
// backends that die or drain — resuming FLOC runs from the last
// replicated checkpoint so nothing past a boundary is ever recomputed
// and the final clustering is bit-identical to an uninterrupted run.
//
//	POST   /v1/jobs                  route + dispatch    → 202 (+warning when degraded)
//	                                 (JSON, or a binary DSUB envelope whose DCMX
//	                                 matrix section is proxied byte for byte)
//	POST   /v1/jobs:batch            per-item routing fan-out across the ring → 202
//	GET    /v1/jobs/{id}             proxied status      → 200
//	GET    /v1/jobs/{id}/result      proxied result      → 200
//	PATCH  /v1/jobs/{id}/matrix      proxied deltastream patch, recorded for rebuilds → 200
//	POST   /v1/jobs/{id}:recluster   warm-start child on the parent's owner, or rebuilt
//	                                 from a replica checkpoint when the owner is gone → 202
//	DELETE /v1/jobs/{id}             proxied cancel      → 202 (or 200)
//	GET    /healthz              coordinator liveness
//	GET    /readyz               ready while ≥1 backend is up
//	GET    /metrics              routing/replication/migration counters
//	GET    /v1/admin/backends    backend health states
//
// Unlike internal/service, this package is inherently wall-clock
// driven (health probes, retry backoff, replication cadence) and makes
// no determinism claims of its own; the determinism story lives
// entirely in the engines it routes to. What it does promise is
// boundedness: every backend call has a timeout, every retry loop a
// cap, every goroutine a lifecycle tied to Shutdown.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"deltacluster/internal/service"
	"deltacluster/internal/stats"
)

// Options configures a Coordinator.
type Options struct {
	// Backends are the base URLs of the backend deltaserve processes
	// (e.g. "http://127.0.0.1:8081"). Membership is fixed for the
	// coordinator's lifetime; liveness within the set is probed.
	Backends []string

	// Replication is how many peer backends (beyond the owner) receive
	// each job's metadata and checkpoint replicas. Fewer live peers
	// than this degrades submissions to 202-with-warning, never 500.
	// Defaults to 1.
	Replication int

	// ProbeInterval is the health-probe cadence. Defaults to 1s.
	ProbeInterval time.Duration

	// FailThreshold is how many consecutive probe failures mark a
	// backend down. Defaults to 3.
	FailThreshold int

	// PollInterval is the job-sync cadence: view refresh, checkpoint
	// pull/push, migration of orphaned jobs. Defaults to 500ms.
	PollInterval time.Duration

	// RequestTimeout bounds each backend HTTP attempt. Defaults to 10s.
	RequestTimeout time.Duration

	// RetryAttempts caps tries per backend call (first try included).
	// Defaults to 3.
	RetryAttempts int

	// BackoffBase and BackoffMax shape the exponential retry backoff.
	// Default 100ms base, 2s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Seed drives the job-ID RNG (equal seeds issue equal sequences).
	// Defaults to 1.
	Seed int64

	// TTL is how long a terminal job's routing entry (and cached last
	// view) stays readable. Defaults to 15 minutes.
	TTL time.Duration

	// MaxJobs bounds the routing table; a full table rejects
	// submissions with 429. Defaults to 4096.
	MaxJobs int

	// MaxBodyBytes caps proxied request bodies. Defaults to 32 MiB.
	MaxBodyBytes int64

	// Logf, when non-nil, receives coordinator lifecycle events.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Replication <= 0 {
		o.Replication = 1
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TTL <= 0 {
		o.TTL = 15 * time.Minute
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	return o
}

// backendState is the prober's verdict on one backend.
type backendState int

const (
	stateUp backendState = iota
	stateDraining
	stateDown
)

func (s backendState) String() string {
	switch s {
	case stateUp:
		return "up"
	case stateDraining:
		return "draining"
	default:
		return "down"
	}
}

// backend is one member of the cluster. Guarded by Coordinator.mu.
type backend struct {
	name  string
	state backendState
	fails int // consecutive probe failures
}

// job is one routing-table entry: where the job lives now, how to
// re-create it elsewhere, and the latest replicated-checkpoint
// position. Guarded by Coordinator.mu; backend calls about a job
// happen outside the lock and re-acquire it to commit.
type job struct {
	id        string // public ID (what the client sees)
	submit    service.SubmitRequest
	algorithm string
	attempts  int

	owner string // current owner backend name
	epoch int    // migration count; see dispatchID

	replicas []string // peer backends holding this job's replicas

	ckIters int    // latest replicated checkpoint boundary (-1 = none)
	ckEtag  string // owner's checkpoint ETag, for conditional pulls

	clientCancelled bool // DELETE came through the coordinator
	cancelSeen      int  // consecutive unexplained-cancel observations
	terminal        bool
	finishedAt      time.Time

	lastView service.JobView // latest owner-reported view, ID rewritten
	degraded bool            // accepted below replication target

	// Streaming lineage. lineageRoot is the public ID of the lineage's
	// root job (itself, for roots); patches is the full recorded
	// deltastream history of the lineage, in order, so the patched
	// matrix can be rebuilt bit for bit on any backend from the root
	// submission alone. A PATCH through the coordinator appends to
	// every member of the lineage, so each entry is self-contained for
	// failover. parentID and warm mark warm-start recluster children:
	// they migrate with their patches and, lacking an own checkpoint,
	// their parent's replicated one.
	lineageRoot   string
	parentID      string
	warm          bool
	patches       []service.MatrixPatchRequest
	matrixVersion int
	finalCkPulled bool // the done-boundary checkpoint reached the replicas

	// binMatrix holds the DCMX section of a binary submission, exactly
	// as the client sent it, in an exact-size copy of its own (never a
	// window into the request body, whose read slack and params it
	// would pin for the entry's life). Every (re)dispatch — initial,
	// migration, recluster rebuild — forwards these bytes verbatim
	// inside a DSUB envelope; the receiving backend re-verifies the
	// section checksum, so no hop can corrupt the matrix silently. Nil
	// for JSON jobs, whose matrix lives in submit itself.
	binMatrix []byte
}

// dispatchID is the backend-side job ID for the given migration epoch:
// the public ID itself for the initial dispatch, "<id>.m<n>" for the
// n-th migration. Distinct per epoch so a re-dispatch can never
// collide with a corpse of the job on a backend that comes back.
func dispatchID(id string, epoch int) string {
	if epoch == 0 {
		return id
	}
	return fmt.Sprintf("%s.m%d", id, epoch)
}

// Coordinator routes, replicates and migrates. Create with New, mount
// Handler, Shutdown to stop the probe and sync loops.
type Coordinator struct {
	opts    Options
	ring    *ring
	client  *client
	metrics *metrics
	mux     *http.ServeMux

	mu       sync.Mutex
	rng      *stats.RNG
	backends map[string]*backend
	jobs     map[string]*job

	stop context.CancelFunc
	wg   sync.WaitGroup
}

// New builds a Coordinator over the given backends and starts its
// health-probe and job-sync loops. Backends start optimistically "up";
// the first probe round corrects that within one interval.
func New(opts Options) (*Coordinator, error) {
	o := opts.withDefaults()
	if len(o.Backends) == 0 {
		return nil, errors.New("coord: at least one backend is required")
	}
	names := make([]string, 0, len(o.Backends))
	seen := make(map[string]bool)
	for _, b := range o.Backends {
		name := strings.TrimRight(strings.TrimSpace(b), "/")
		if name == "" {
			return nil, fmt.Errorf("coord: empty backend URL in %q", o.Backends)
		}
		if !strings.Contains(name, "://") {
			name = "http://" + name
		}
		if seen[name] {
			return nil, fmt.Errorf("coord: duplicate backend %q", name)
		}
		seen[name] = true
		names = append(names, name)
	}

	c := &Coordinator{
		opts:     o,
		ring:     newRing(names),
		client:   newClient(o.RequestTimeout, o.RetryAttempts, o.BackoffBase, o.BackoffMax),
		metrics:  &metrics{},
		rng:      stats.NewRNG(o.Seed),
		backends: make(map[string]*backend, len(names)),
		jobs:     make(map[string]*job),
	}
	for _, name := range names {
		c.backends[name] = &backend{name: name, state: stateUp}
	}

	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("POST /v1/jobs:batch", c.handleBatch)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleGet)
	c.mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleResult)
	c.mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	c.mux.HandleFunc("PATCH /v1/jobs/{id}/matrix", c.handlePatchMatrix)
	c.mux.HandleFunc("POST /v1/jobs/{target}", c.handleJobAction)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /v1/admin/backends", c.handleBackends)

	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.probeLoop(ctx)
	}()
	go func() {
		defer c.wg.Done()
		c.syncLoop(ctx)
	}()
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Shutdown stops the probe and sync loops and waits for them. Proxied
// in-flight requests are bounded by RequestTimeout and finish on their
// own; backends are not touched.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.stop()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// SubmitResponse is the coordinator's 202 body: the backend's job view
// (ID rewritten to the public one) plus an optional degradation
// warning when the job was accepted with fewer replicas than asked.
type SubmitResponse struct {
	Job     service.JobView `json:"job"`
	Warning string          `json:"warning,omitempty"`
}

// mintID issues the next public job ID from the seeded RNG, skipping
// collisions with live routing entries.
func (c *Coordinator) mintID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		id := fmt.Sprintf("j%016x", uint64(c.rng.Int63()))
		if _, taken := c.jobs[id]; !taken {
			return id
		}
	}
}

// routingFull reports whether the routing table is at capacity, after
// giving expired terminal entries one chance to age out.
func (c *Coordinator) routingFull() bool {
	c.mu.Lock()
	full := len(c.jobs) >= c.opts.MaxJobs
	c.mu.Unlock()
	if !full {
		return false
	}
	c.evictExpired()
	c.mu.Lock()
	full = len(c.jobs) >= c.opts.MaxJobs
	c.mu.Unlock()
	return full
}

// placement returns the ready owner and ready replica peers for a job
// ID per the ring's preference order, plus the replica shortfall
// against the configured target.
func (c *Coordinator) placement(id string) (owner string, peers []string, shortfall int) {
	prefs := c.ring.prefs(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	ready := make([]string, 0, len(prefs))
	for _, name := range prefs {
		if b := c.backends[name]; b != nil && b.state == stateUp {
			ready = append(ready, name)
		}
	}
	if len(ready) == 0 {
		return "", nil, c.opts.Replication
	}
	owner = ready[0]
	peers = ready[1:]
	if len(peers) > c.opts.Replication {
		peers = peers[:c.opts.Replication]
	}
	return owner, peers, c.opts.Replication - len(peers)
}

// handleSubmit routes a client submission. A JSON body is decoded
// here; a binary (DSUB) body branches to handleSubmitBinary, which
// peels the params off the envelope and leaves the DCMX section as
// opaque bytes to proxy. Both paths converge on submitOne.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		c.handleSubmitBinary(w, r)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req service.SubmitRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, service.CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, service.CodeInvalidRequest, "decoding request: %v", err)
		return
	}
	c.respondSubmit(w, c.submitOne(r.Context(), req, nil))
}

// handleSubmitBinary is the binary branch of POST /v1/jobs: the DSUB
// envelope's framing and params checksum are verified here (a corrupt
// request dies at the front door), but the DCMX matrix section is
// never opened — it is proxied byte for byte and the executing backend
// verifies its checksum.
func (c *Coordinator) handleSubmitBinary(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, service.CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, service.CodeInvalidRequest, "reading request body: %v", err)
		return
	}
	req, dcmx, err := service.DecodeBinarySubmit(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, service.CodeInvalidRequest, "binary submit: %v", err)
		return
	}
	c.respondSubmit(w, c.submitOne(r.Context(), *req, dcmx))
}

// isBinaryContentType matches the binary submission MIME type,
// tolerating parameters after it — the coordinator-side mirror of the
// service's check.
func isBinaryContentType(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == service.ContentTypeBinaryMatrix
}

// submitOutcome is submitOne's verdict on one submission: an accepted
// job's view (plus degradation warning), or a refusal carrying either
// a synthesized error or a backend 4xx to relay.
type submitOutcome struct {
	ok      bool
	id      string
	view    service.JobView
	warning string

	status  int       // refusal: standalone HTTP status
	code    string    // refusal: error code (when relay is nil)
	message string    // refusal: error message (when relay is nil)
	relay   *response // refusal: backend 4xx answered verbatim
}

// submitOne routes one submission end to end: mint an ID, dispatch to
// the ring owner (falling over to the next ready backend if the owner
// refuses), replicate the job's metadata to peer backends, and record
// the routing entry. dcmx, when non-nil, is the client's DCMX matrix
// section; it rides the dispatch verbatim inside a DSUB envelope and
// an exact-size copy is retained on the routing entry so migrations
// and rebuilds can forward the same bytes. Total unavailability (no
// backend accepts) is the only 5xx path.
func (c *Coordinator) submitOne(ctx context.Context, req service.SubmitRequest, dcmx []byte) submitOutcome {
	if c.routingFull() {
		return submitOutcome{status: http.StatusTooManyRequests, code: service.CodeQueueFull,
			message: fmt.Sprintf("coordinator routing table is full (%d jobs); retry later", c.opts.MaxJobs)}
	}

	id := c.mintID()
	owner, peers, shortfall := c.placement(id)
	if owner == "" {
		return submitOutcome{status: http.StatusServiceUnavailable, code: codeNoBackends, message: "no ready backends"}
	}

	// Dispatch to the owner; if it refuses at the transport level, walk
	// the rest of the preference list before giving up. A 4xx is final:
	// the spec itself is bad and is relayed verbatim.
	body, contentType, err := encodeDispatch(service.DispatchRequest{ID: id, Submit: req}, dcmx)
	if err != nil {
		return submitOutcome{status: http.StatusInternalServerError, code: service.CodeInternal,
			message: fmt.Sprintf("encoding dispatch: %v", err)}
	}
	candidates := append([]string{owner}, peers...)
	var resp *response
	var dispatchedTo string
	for _, name := range candidates {
		resp, err = c.client.do(ctx, http.MethodPost, name+"/v1/internal/jobs", body, contentType)
		if err != nil {
			c.logf("coord: dispatch %s to %s: %v", id, name, err)
			c.noteCallFailure(name)
			continue
		}
		dispatchedTo = name
		break
	}
	if resp == nil {
		return submitOutcome{status: http.StatusBadGateway, code: codeNoBackends,
			message: fmt.Sprintf("no backend accepted job %s: %v", id, err)}
	}
	if resp.status != http.StatusAccepted && resp.status != http.StatusOK {
		return submitOutcome{status: resp.status, relay: resp}
	}
	var dr service.DispatchResponse
	if err := json.Unmarshal(resp.body, &dr); err != nil {
		return submitOutcome{status: http.StatusBadGateway, code: service.CodeInternal,
			message: fmt.Sprintf("backend %s returned an unreadable dispatch response: %v", dispatchedTo, err)}
	}

	// Replicate the job's metadata to the peer set. Failures degrade,
	// never fail: the job is already running. Binary jobs replicate a
	// matrix-less submit — their matrix integrity on failover rests on
	// the retained DCMX bytes and the replicated checkpoint's MatrixSum.
	placed := 0
	for _, peer := range peers {
		if peer == dispatchedTo {
			continue
		}
		if c.putMetaReplica(ctx, peer, id, &req) {
			placed++
		} else {
			c.noteCallFailure(peer)
		}
	}
	missing := shortfall + (len(peers) - placed)
	if dispatchedTo != owner && placed < len(peers) {
		// The owner slot consumed a peer; recount against the target.
		missing = c.opts.Replication - placed
	}

	algo := req.Algorithm
	if algo == "" {
		algo = service.AlgoFLOC
	}
	attempts := 1
	if req.FLOC != nil && req.FLOC.Attempts > 1 {
		attempts = req.FLOC.Attempts
	}
	view := dr.Job
	view.ID = id
	j := &job{
		id:          id,
		submit:      req,
		algorithm:   algo,
		attempts:    attempts,
		owner:       dispatchedTo,
		replicas:    replicasWithout(peers, dispatchedTo),
		ckIters:     -1,
		lastView:    view,
		degraded:    missing > 0,
		lineageRoot: id,
		binMatrix:   exactCopy(dcmx),
	}
	c.mu.Lock()
	c.jobs[id] = j
	c.mu.Unlock()

	c.metrics.jobRouted()
	out := submitOutcome{ok: true, id: id, view: view}
	if missing > 0 {
		c.metrics.jobDegraded()
		out.warning = fmt.Sprintf(
			"replication degraded: %d of %d replica(s) placed; the job runs, but failover headroom is reduced",
			c.opts.Replication-missing, c.opts.Replication)
	}
	return out
}

// exactCopy returns b in a fresh slice with cap == len (nil for nil).
// bytes.Clone would do, but append rounds its capacity up to the
// allocator's size class — up to a page per retained matrix.
func exactCopy(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// encodeDispatch renders a DispatchRequest for the wire: plain JSON
// for JSON-submitted jobs, a DSUB envelope carrying the original DCMX
// bytes verbatim for binary ones.
func encodeDispatch(dreq service.DispatchRequest, dcmx []byte) (body []byte, contentType string, err error) {
	if len(dcmx) > 0 {
		body, err = service.EncodeBinaryDispatch(&dreq, dcmx)
		return body, service.ContentTypeBinaryMatrix, err
	}
	body, err = json.Marshal(dreq)
	return body, "application/json", err
}

// respondSubmit renders a submitOne outcome as the standalone POST
// /v1/jobs answer.
func (c *Coordinator) respondSubmit(w http.ResponseWriter, out submitOutcome) {
	if !out.ok {
		if out.relay != nil {
			relay(w, out.relay)
			return
		}
		if out.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, out.status, out.code, "%s", out.message)
		return
	}
	resp := SubmitResponse{Job: out.view, Warning: out.warning}
	if out.warning != "" {
		w.Header().Set("X-Deltaserve-Degraded", "replication")
	}
	w.Header().Set("Location", "/v1/jobs/"+out.id)
	writeJSON(w, http.StatusAccepted, resp)
}

// handleBatch is POST /v1/jobs:batch: the service's batch surface at
// cluster scope. Each item routes independently through submitOne, so
// one batch fans out across the ring — every minted ID hashes to its
// own owner — and a refused item (bad spec, full routing table, no
// backend) never poisons its neighbors. Batches are JSON-only; binary
// submissions carry one matrix each.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		writeError(w, http.StatusUnsupportedMediaType, service.CodeInvalidRequest,
			"batch submissions are JSON-only; binary submissions carry one matrix each")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req service.BatchSubmitRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, service.CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, service.CodeInvalidRequest, "decoding batch: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, service.CodeInvalidRequest, "batch: jobs is empty")
		return
	}
	if len(req.Jobs) > service.MaxBatchJobs {
		writeError(w, http.StatusBadRequest, service.CodeInvalidRequest,
			"batch carries %d jobs; the server caps batches at %d", len(req.Jobs), service.MaxBatchJobs)
		return
	}

	resp := service.BatchSubmitResponse{Jobs: make([]service.BatchItemView, len(req.Jobs))}
	sawQueueFull, sawUnavailable, degraded := false, false, false
	for i := range req.Jobs {
		item := &resp.Jobs[i]
		item.Index = i
		out := c.submitOne(r.Context(), req.Jobs[i], nil)
		if out.ok {
			item.Status = http.StatusAccepted
			view := out.view
			item.Job = &view
			resp.Accepted++
			if out.warning != "" {
				degraded = true
			}
			continue
		}
		item.Status = out.status
		item.Error = batchItemError(out)
		resp.Rejected++
		switch {
		case out.status == http.StatusTooManyRequests:
			sawQueueFull = true
		case out.status >= http.StatusInternalServerError:
			sawUnavailable = true
		}
	}

	status := http.StatusAccepted
	if resp.Accepted == 0 {
		switch {
		case sawQueueFull:
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		case sawUnavailable:
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusBadRequest
		}
	} else if degraded {
		w.Header().Set("X-Deltaserve-Degraded", "replication")
	}
	writeJSON(w, status, resp)
}

// batchItemError renders a refusal as a per-item error detail: the
// backend's own error body when the refusal was a relayed 4xx, the
// synthesized coordinator error otherwise.
func batchItemError(out submitOutcome) *service.ErrorDetail {
	if out.relay != nil {
		var eb service.ErrorBody
		if json.Unmarshal(out.relay.body, &eb) == nil && eb.Error.Message != "" {
			return &eb.Error
		}
		return &service.ErrorDetail{Code: service.CodeInvalidRequest, Message: string(out.relay.body)}
	}
	return &service.ErrorDetail{Code: out.code, Message: out.message}
}

func replicasWithout(peers []string, name string) []string {
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		if p != name {
			out = append(out, p)
		}
	}
	return out
}

// putMetaReplica best-effort PUTs the job's metadata blob to one peer.
func (c *Coordinator) putMetaReplica(ctx context.Context, peer, id string, req *service.SubmitRequest) bool {
	meta, err := json.Marshal(map[string]any{"id": id, "submit": req})
	if err != nil {
		return false
	}
	resp, err := c.client.do(ctx, http.MethodPut, peer+"/v1/internal/replicas/"+id+"/meta", meta, "application/json")
	if err != nil || resp.status != http.StatusOK {
		c.metrics.replicaPutFailed()
		return false
	}
	c.metrics.replicaPut()
	return true
}

// jobRef snapshots the fields a proxy call needs outside the lock.
type jobRef struct {
	id              string
	owner           string
	epoch           int
	terminal        bool
	clientCancelled bool
	parentID        string
	lastView        service.JobView
}

func (c *Coordinator) ref(id string) (jobRef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return jobRef{}, false
	}
	return jobRef{id: j.id, owner: j.owner, epoch: j.epoch, terminal: j.terminal,
		clientCancelled: j.clientCancelled, parentID: j.parentID, lastView: j.lastView}, true
}

// handleGet proxies job status from the current owner, rewriting the
// backend-side ID to the public one. When the owner is unreachable
// (the failover window), the last observed view is served instead of
// an error — the job is not gone, it is moving.
func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ref, ok := c.ref(id)
	if !ok {
		writeError(w, http.StatusNotFound, service.CodeNotFound, "no job %q (unknown or expired)", id)
		return
	}
	resp, err := c.client.do(r.Context(), http.MethodGet,
		ref.owner+"/v1/jobs/"+dispatchID(ref.id, ref.epoch), nil, "")
	if err != nil || resp.status != http.StatusOK {
		if err != nil {
			c.noteCallFailure(ref.owner)
		}
		writeJSON(w, http.StatusOK, ref.lastView)
		return
	}
	var v service.JobView
	if err := json.Unmarshal(resp.body, &v); err != nil {
		writeJSON(w, http.StatusOK, ref.lastView)
		return
	}
	v.ID = id
	if ref.parentID != "" {
		// The backend reports its own dispatch-side parent ID — or none
		// at all for a child rebuilt from scratch on failover; either
		// way the public lineage is the coordinator's to tell.
		v.ParentID = ref.parentID
	}
	if v.State == service.StateCancelled && !ref.clientCancelled {
		// The backend's run was interrupted (drain, interference) but
		// the client never asked for a cancel: the job is migrating,
		// not over. Serve the pre-interruption view until the
		// re-dispatch lands rather than flapping through "cancelled".
		writeJSON(w, http.StatusOK, ref.lastView)
		return
	}
	c.commitView(id, v)
	writeJSON(w, http.StatusOK, v)
}

// handleResult proxies the final result from the current owner. The
// result body carries no job ID, so it is relayed verbatim — and the
// client's Accept header is forwarded, so a binary (DRES) download
// negotiated with the backend passes through untouched.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ref, ok := c.ref(id)
	if !ok {
		writeError(w, http.StatusNotFound, service.CodeNotFound, "no job %q (unknown or expired)", id)
		return
	}
	resp, err := c.client.doAccept(r.Context(), http.MethodGet,
		ref.owner+"/v1/jobs/"+dispatchID(ref.id, ref.epoch)+"/result", nil, "", r.Header.Get("Accept"))
	if err != nil {
		c.noteCallFailure(ref.owner)
		writeError(w, http.StatusBadGateway, codeBackendDown,
			"backend holding job %s is unreachable; if the job was running it is being migrated — retry", id)
		return
	}
	relay(w, resp)
}

// handleCancel proxies a cancel to the current owner and records that
// the *client* asked — which is what distinguishes a user cancel
// (terminal) from a drain/crash interruption (migrate and resume).
func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ref, ok := c.ref(id)
	if !ok {
		writeError(w, http.StatusNotFound, service.CodeNotFound, "no job %q (unknown or expired)", id)
		return
	}
	c.mu.Lock()
	if j := c.jobs[id]; j != nil {
		j.clientCancelled = true
	}
	c.mu.Unlock()
	resp, err := c.client.do(r.Context(), http.MethodDelete,
		ref.owner+"/v1/jobs/"+dispatchID(ref.id, ref.epoch), nil, "")
	if err != nil {
		c.noteCallFailure(ref.owner)
		writeError(w, http.StatusBadGateway, codeBackendDown,
			"backend holding job %s is unreachable; cancel recorded and applied on migration", id)
		return
	}
	if resp.status == http.StatusOK || resp.status == http.StatusAccepted {
		var v service.JobView
		if json.Unmarshal(resp.body, &v) == nil {
			v.ID = id
			c.commitView(id, v)
			writeJSON(w, resp.status, v)
			return
		}
	}
	relay(w, resp)
}

// commitView stores the latest owner-reported view (public ID already
// rewritten) and derives terminality. A cancelled state only counts as
// terminal when the client asked for it through the coordinator;
// otherwise it is an interrupted run the sync loop will migrate.
func (c *Coordinator) commitView(id string, v service.JobView) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return
	}
	switch v.State {
	case service.StateDone, service.StateFailed:
		j.lastView = v
		j.setTerminalLocked()
	case service.StateCancelled:
		if j.clientCancelled {
			j.lastView = v
			j.setTerminalLocked()
		}
		// An interference cancel keeps the pre-interruption view: the
		// job is a migration candidate, and its public story continues
		// where it left off once re-dispatched.
	default:
		j.lastView = v
	}
}

// setTerminalLocked marks the job finished for TTL accounting.
func (j *job) setTerminalLocked() {
	if !j.terminal {
		j.terminal = true
		j.finishedAt = time.Now()
	}
}

// evictExpired drops terminal routing entries older than the TTL.
func (c *Coordinator) evictExpired() {
	cutoff := time.Now().Add(-c.opts.TTL)
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, j := range c.jobs {
		if j.terminal && j.finishedAt.Before(cutoff) {
			delete(c.jobs, id)
		}
	}
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "backends": c.backendStates()})
}

// handleReadyz reports ready while at least one backend is up.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	states := c.backendStates()
	for _, st := range states {
		if st == "up" {
			writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "backends": states})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no ready backends", "backends": states})
}

func (c *Coordinator) handleBackends(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"backends": c.backendStates()})
}

// backendStates renders name→state, sorted for stable output.
func (c *Coordinator) backendStates() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.backends))
	for name := range c.backends {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]string, len(names))
	for _, name := range names {
		out[name] = c.backends[name].state.String()
	}
	return out
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	total := len(c.jobs)
	active := 0
	for _, j := range c.jobs {
		if !j.terminal {
			active++
		}
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, c.metrics.snapshot(total, active, c.backendStates()))
}

// Coordinator-specific error codes, extending the service's model.
const (
	codeNoBackends  = "no_ready_backends"
	codeBackendDown = "backend_unavailable"
)

// relay copies a backend response through verbatim (status, content
// type, body) — used when the backend's answer is already the right
// answer for the client.
func relay(w http.ResponseWriter, resp *response) {
	if ct := resp.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// writeJSON and writeError mirror the service's response helpers.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, service.ErrorBody{Error: service.ErrorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
