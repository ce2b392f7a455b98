// This file is the coordinator's streaming surface: deltastream
// matrix patches proxied to the lineage's owner (and recorded, so the
// patched matrix can be rebuilt anywhere), and warm-start reclusters
// routed to the backend that already holds the parent's final
// checkpoint — with a rebuild-from-replica fallback when that backend
// is gone.

package coord

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"deltacluster/internal/service"
)

// handlePatchMatrix is PATCH /v1/jobs/{id}/matrix: decode the patch
// (so a malformed one dies here, with the same strictness the backend
// applies), proxy it to the addressed job's owner, and on success
// record it against every member of the job's lineage. The recorded
// history is what lets a recluster or migration rebuild the patched
// matrix bit for bit on a backend that never saw the original.
//
// The lineage matrix lives in the owner's memory, so a down owner
// means patches cannot land — the coordinator answers 502 rather than
// buffering a write it cannot prove applied.
func (c *Coordinator) handlePatchMatrix(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	r.Body = http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var patch service.MatrixPatchRequest
	if err := dec.Decode(&patch); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, service.CodeInvalidRequest,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, service.CodeInvalidRequest, "decoding patch: %v", err)
		return
	}
	ref, ok := c.ref(id)
	if !ok {
		writeError(w, http.StatusNotFound, service.CodeNotFound, "no job %q (unknown or expired)", id)
		return
	}
	body, err := json.Marshal(&patch)
	if err != nil {
		writeError(w, http.StatusInternalServerError, service.CodeInternal, "encoding patch: %v", err)
		return
	}
	resp, err := c.client.do(r.Context(), http.MethodPatch,
		ref.owner+"/v1/jobs/"+dispatchID(ref.id, ref.epoch)+"/matrix", body, "application/json")
	if err != nil {
		c.noteCallFailure(ref.owner)
		writeError(w, http.StatusBadGateway, codeBackendDown,
			"backend holding job %s's lineage matrix is unreachable; retry once failover settles", id)
		return
	}
	if resp.status != http.StatusOK {
		relay(w, resp) // 409 lineage_busy and validation 400s are final answers
		return
	}
	var out service.MatrixPatchResponse
	if err := json.Unmarshal(resp.body, &out); err != nil {
		writeError(w, http.StatusBadGateway, service.CodeInternal,
			"backend %s returned an unreadable patch response: %v", ref.owner, err)
		return
	}
	root := c.recordPatch(id, patch, out.MatrixVersion)
	c.metrics.matrixPatched()
	c.logf("coord: job %s: matrix patched to version %d via %s", id, out.MatrixVersion, ref.owner)
	out.JobID = id
	out.Lineage = root
	writeJSON(w, http.StatusOK, out)
}

// recordPatch appends a landed patch to every routing entry of the
// addressed job's lineage and returns the lineage's public root ID.
// Every member carries the full history so whichever entry survives
// eviction or drives a failover is self-contained.
func (c *Coordinator) recordPatch(id string, patch service.MatrixPatchRequest, version int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return id
	}
	root := j.lineageRoot
	if root == "" {
		root = j.id
	}
	for _, member := range c.jobs {
		mroot := member.lineageRoot
		if mroot == "" {
			mroot = member.id
		}
		if mroot == root {
			member.patches = append(member.patches, patch)
			member.matrixVersion = version
		}
	}
	return root
}

// handleJobAction is POST /v1/jobs/{target} with target
// "<id>:recluster": start a warm-start child of a completed job. The
// coordinator mints the child's public ID, routes the recluster to
// the parent's owner — the one backend already holding the lineage
// matrix and the parent's final checkpoint — and registers the child
// in the routing table with its full lineage (root submission plus
// recorded patches) so it can fail over like any other job. When the
// owner is unreachable, the child is rebuilt from scratch on another
// backend: original submission, replayed patches, and the freshest
// replicated parent checkpoint as the warm seed.
func (c *Coordinator) handleJobAction(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("target")
	parentID, isRecluster := strings.CutSuffix(target, ":recluster")
	if !isRecluster || parentID == "" {
		writeError(w, http.StatusNotFound, service.CodeNotFound,
			"unknown job action %q (want {id}:recluster)", target)
		return
	}
	var req service.ReclusterRequest
	r.Body = http.MaxBytesReader(w, r.Body, c.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, service.CodeInvalidRequest, "decoding recluster request: %v", err)
		return
	}
	if req.ChildID != "" {
		writeError(w, http.StatusBadRequest, service.CodeInvalidRequest,
			"child_id is minted by the coordinator; omit it")
		return
	}

	pref, ok := c.lineageRef(parentID)
	if !ok {
		writeError(w, http.StatusNotFound, service.CodeNotFound, "no job %q (unknown or expired)", parentID)
		return
	}
	if c.routingFull() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, service.CodeQueueFull,
			"coordinator routing table is full (%d jobs); retry later", c.opts.MaxJobs)
		return
	}

	childID := c.mintID()
	if pref.ownerUp {
		if c.reclusterViaOwner(r.Context(), w, pref, childID) {
			return
		}
		// The owner probed up but stopped answering mid-flight; treat it
		// like a down owner and rebuild elsewhere.
	}
	c.reclusterViaFallback(r.Context(), w, pref, childID)
}

// lineageRef snapshots the fields a recluster needs outside the lock:
// the parent's routing position plus everything required to rebuild
// its lineage elsewhere.
type lineageRef struct {
	id          string
	owner       string
	epoch       int
	ownerUp     bool
	lineageRoot string
	lastState   service.JobState
	submit      service.SubmitRequest
	patches     []service.MatrixPatchRequest
	replicas    []string
	binMatrix   []byte
}

func (c *Coordinator) lineageRef(id string) (lineageRef, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return lineageRef{}, false
	}
	root := j.lineageRoot
	if root == "" {
		root = j.id
	}
	b := c.backends[j.owner]
	return lineageRef{
		id:          j.id,
		owner:       j.owner,
		epoch:       j.epoch,
		ownerUp:     b != nil && b.state == stateUp,
		lineageRoot: root,
		lastState:   j.lastView.State,
		submit:      j.submit,
		patches:     append([]service.MatrixPatchRequest(nil), j.patches...),
		replicas:    append([]string(nil), j.replicas...),
		binMatrix:   j.binMatrix,
	}, true
}

// reclusterViaOwner routes the recluster to the parent's owner — the
// backend whose memory already holds the lineage matrix and the
// parent's final checkpoint, making this the zero-copy path. Reports
// whether a response was written; false means the owner was
// unreachable at the transport level and the caller should fall back.
func (c *Coordinator) reclusterViaOwner(ctx context.Context, w http.ResponseWriter, pref lineageRef, childID string) bool {
	body, err := json.Marshal(service.ReclusterRequest{ChildID: childID})
	if err != nil {
		writeError(w, http.StatusInternalServerError, service.CodeInternal, "encoding recluster: %v", err)
		return true
	}
	resp, err := c.client.do(ctx, http.MethodPost,
		pref.owner+"/v1/jobs/"+dispatchID(pref.id, pref.epoch)+":recluster", body, "application/json")
	if err != nil {
		c.noteCallFailure(pref.owner)
		return false
	}
	if resp.status != http.StatusAccepted && resp.status != http.StatusOK {
		relay(w, resp) // job_not_done / lineage_busy are final
		return true
	}
	var rr service.ReclusterResponse
	if err := json.Unmarshal(resp.body, &rr); err != nil {
		writeError(w, http.StatusBadGateway, service.CodeInternal,
			"backend %s returned an unreadable recluster response: %v", pref.owner, err)
		return true
	}
	view := rr.Job
	view.ID = childID
	view.ParentID = pref.id
	peers := c.replicaPeersFor(childID, pref.owner)
	c.registerChild(pref, childID, pref.owner, peers, view)
	for _, peer := range peers {
		if !c.putMetaReplica(ctx, peer, childID, &pref.submit) {
			c.noteCallFailure(peer)
		}
	}
	c.metrics.reclusterRouted()
	c.logf("coord: job %s: recluster child %s on owner %s (warm from iteration %d)",
		pref.id, childID, pref.owner, rr.WarmFromIteration)
	w.Header().Set("Location", "/v1/jobs/"+childID)
	writeJSON(w, http.StatusAccepted, service.ReclusterResponse{
		Job:               view,
		ParentID:          pref.id,
		WarmFromIteration: rr.WarmFromIteration,
	})
	return true
}

// reclusterViaFallback rebuilds the warm-start child on a backend
// that has never seen the lineage: the original submission and the
// recorded patch history reconstruct the matrix bit for bit, and the
// freshest replicated parent checkpoint seeds the clustering. The
// parent-done contract the owner would have enforced is checked here
// from the last observed view.
func (c *Coordinator) reclusterViaFallback(ctx context.Context, w http.ResponseWriter, pref lineageRef, childID string) {
	if pref.lastState != service.StateDone {
		writeError(w, http.StatusConflict, service.CodeJobNotDone,
			"job %s last reported %q; only done jobs recluster", pref.id, pref.lastState)
		return
	}
	sources := replicaCheckpointURLs(pref.id, pref.replicas)
	if c.backendState(pref.owner) != stateDown {
		sources = append(sources, pref.owner+"/v1/internal/jobs/"+dispatchID(pref.id, pref.epoch)+"/checkpoint")
	}
	ck, ckIters := c.bestCheckpoint(ctx, sources)
	if ck == nil {
		writeError(w, http.StatusBadGateway, codeBackendDown,
			"job %s's owner is unreachable and no replica holds its checkpoint; retry once failover settles", pref.id)
		return
	}
	newOwner, _, _ := c.placementExcluding(childID, pref.owner)
	if newOwner == "" {
		writeError(w, http.StatusServiceUnavailable, codeNoBackends, "no ready backends")
		return
	}
	// A binary lineage rebuilds from the root's retained DCMX bytes —
	// the patches replay on top of the decoded binary matrix exactly as
	// they would on a JSON one.
	body, contentType, err := encodeDispatch(service.DispatchRequest{
		ID:                  childID,
		Submit:              pref.submit,
		Patches:             pref.patches,
		WarmStartCheckpoint: ck,
	}, pref.binMatrix)
	if err != nil {
		writeError(w, http.StatusInternalServerError, service.CodeInternal, "encoding dispatch: %v", err)
		return
	}
	resp, err := c.client.do(ctx, http.MethodPost, newOwner+"/v1/internal/jobs", body, contentType)
	if err != nil {
		c.noteCallFailure(newOwner)
		writeError(w, http.StatusBadGateway, codeNoBackends,
			"no backend accepted recluster child %s: %v", childID, err)
		return
	}
	if resp.status != http.StatusAccepted && resp.status != http.StatusOK {
		relay(w, resp)
		return
	}
	var dr service.DispatchResponse
	if err := json.Unmarshal(resp.body, &dr); err != nil {
		writeError(w, http.StatusBadGateway, service.CodeInternal,
			"backend %s returned an unreadable dispatch response: %v", newOwner, err)
		return
	}
	view := dr.Job
	view.ID = childID
	view.ParentID = pref.id
	peers := c.replicaPeersFor(childID, newOwner)
	c.registerChild(pref, childID, newOwner, peers, view)
	for _, peer := range peers {
		if !c.putMetaReplica(ctx, peer, childID, &pref.submit) {
			c.noteCallFailure(peer)
		}
	}
	c.metrics.reclusterRouted()
	c.metrics.reclusterFellBack()
	c.logf("coord: job %s: recluster child %s rebuilt on %s from replica checkpoint (iteration %d, %d patches)",
		pref.id, childID, newOwner, ckIters, len(pref.patches))
	w.Header().Set("Location", "/v1/jobs/"+childID)
	writeJSON(w, http.StatusAccepted, service.ReclusterResponse{
		Job:               view,
		ParentID:          pref.id,
		WarmFromIteration: dr.WarmFromIteration,
	})
}

// registerChild enters a warm-start child into the routing table. The
// child inherits the lineage's root submission and full patch history
// — not a reference to the parent entry — so it outlives the parent's
// eviction and fails over on its own.
func (c *Coordinator) registerChild(pref lineageRef, childID, owner string, replicas []string, view service.JobView) {
	j := &job{
		id:            childID,
		submit:        pref.submit,
		algorithm:     service.AlgoFLOC,
		attempts:      1,
		owner:         owner,
		replicas:      replicas,
		ckIters:       -1,
		lastView:      view,
		lineageRoot:   pref.lineageRoot,
		parentID:      pref.id,
		warm:          true,
		patches:       append([]service.MatrixPatchRequest(nil), pref.patches...),
		matrixVersion: len(pref.patches),
		binMatrix:     pref.binMatrix,
	}
	c.mu.Lock()
	c.jobs[childID] = j
	c.mu.Unlock()
	c.metrics.jobRouted()
}

// replicaPeersFor picks the child's replica peers: the ring's
// preference walk, live backends only, skipping the owner, capped at
// the replication target.
func (c *Coordinator) replicaPeersFor(id, owner string) []string {
	prefs := c.ring.prefs(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	peers := make([]string, 0, c.opts.Replication)
	for _, name := range prefs {
		if name == owner {
			continue
		}
		if b := c.backends[name]; b != nil && b.state == stateUp {
			peers = append(peers, name)
			if len(peers) == c.opts.Replication {
				break
			}
		}
	}
	return peers
}

func (c *Coordinator) backendState(name string) backendState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.backends[name]; b != nil {
		return b.state
	}
	return stateDown
}

// parentCheckpointSources lists where a migrating warm child's parent
// checkpoint may still be found: the parent's replica peers, plus its
// owner while that owner still answers reads.
func (c *Coordinator) parentCheckpointSources(parentID string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.jobs[parentID]
	if !ok {
		return nil
	}
	urls := replicaCheckpointURLs(parentID, p.replicas)
	if b := c.backends[p.owner]; b != nil && b.state != stateDown {
		urls = append(urls, p.owner+"/v1/internal/jobs/"+dispatchID(p.id, p.epoch)+"/checkpoint")
	}
	return urls
}
