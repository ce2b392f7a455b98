package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"deltacluster/internal/stats"
	"deltacluster/internal/synth"
)

// streamJobRequest is the streaming suite's submission: a planted
// matrix large enough that a random-seeded cold run pays several
// improving iterations (so the job keeps a final checkpoint a
// recluster can warm-start from). The recipe mirrors the floc warm-
// start suite's proven scenario.
func streamJobRequest(t *testing.T, seed int64) *SubmitRequest {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Rows: 200, Cols: 18, NumClusters: 4,
		VolumeMean: 50, VolumeVariance: 0, RowColRatio: 4,
		TargetResidue: 3,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Matrix
	rng := stats.NewRNG(seed * 31)
	rows := make([][]float64, m.Rows())
	for i := range rows {
		r := make([]float64, m.Cols())
		for j := range r {
			if rng.Bool(0.03) {
				r[j] = math.NaN() // missing; RowsJSON renders it as null
				continue
			}
			r[j] = m.Get(i, j)
		}
		rows[i] = r
	}
	return &SubmitRequest{
		Algorithm: AlgoFLOC,
		Matrix:    MatrixPayload{Rows: RowsJSON(rows)},
		FLOC:      &FLOCParams{K: 4, Delta: 10, Seed: 7, Seeding: "random"},
	}
}

// smallDelta is the suite's planted mutation batch: one appended row,
// one update, one retraction.
func smallDelta() *MatrixPatchRequest {
	row := make([]*float64, 18)
	for j := range row {
		v := 0.25 * float64(j)
		row[j] = &v
	}
	up := 1.5
	return &MatrixPatchRequest{
		AppendRows: [][]*float64{row},
		Updates:    []CellPatch{{Row: 2, Col: 3, Value: &up}},
		Retract:    []CellRef{{Row: 8, Col: 1}},
	}
}

func (e *testEnv) patch(t *testing.T, id string, req *MatrixPatchRequest) MatrixPatchResponse {
	t.Helper()
	resp, data := e.do(t, http.MethodPatch, "/v1/jobs/"+id+"/matrix", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch %s: status %d, body %s", id, resp.StatusCode, data)
	}
	var pr MatrixPatchResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

func (e *testEnv) recluster(t *testing.T, id string) ReclusterResponse {
	t.Helper()
	resp, data := e.do(t, http.MethodPost, "/v1/jobs/"+id+":recluster", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("recluster %s: status %d, body %s", id, resp.StatusCode, data)
	}
	var rr ReclusterResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

func (e *testEnv) resultView(t *testing.T, id string) ResultView {
	t.Helper()
	resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d, body %s", id, resp.StatusCode, data)
	}
	var res ResultView
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamPatchReclusterEndToEnd walks the whole deltastream loop
// through the HTTP surface: submit → converge → PATCH a delta →
// recluster warm → converge again in fewer iterations than the
// equivalent cold run — then patch and recluster again off the child,
// proving lineages chain.
func TestStreamPatchReclusterEndToEnd(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
	req := streamJobRequest(t, 1)

	parent := e.submit(t, req)
	if v := e.poll(t, parent, 60*time.Second); v.State != StateDone {
		t.Fatalf("parent finished %s (%s)", v.State, v.Error)
	}
	parentRes := e.resultView(t, parent)
	if parentRes.Iterations < 1 {
		t.Fatalf("parent converged in %d iterations; the suite needs a discovering run", parentRes.Iterations)
	}

	// Patch the lineage matrix: one appended row, one update, one
	// retraction.
	pr := e.patch(t, parent, smallDelta())
	if pr.MatrixVersion != 1 || pr.Rows != 201 || pr.Cols != 18 {
		t.Fatalf("patch outcome %+v, want version 1 of a 201x18 matrix", pr)
	}
	if pr.Lineage != parent {
		t.Fatalf("patch lineage %q, want root %q", pr.Lineage, parent)
	}

	// An invalid patch (ragged appended row) is rejected outright and
	// does not advance the version.
	bad := &MatrixPatchRequest{AppendRows: [][]*float64{make([]*float64, 3)}}
	resp, data := e.do(t, http.MethodPatch, "/v1/jobs/"+parent+"/matrix", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged patch: status %d, body %s", resp.StatusCode, data)
	}

	// Recluster: a warm-start child on the patched matrix.
	rr := e.recluster(t, parent)
	if rr.ParentID != parent || rr.Job.ParentID != parent {
		t.Fatalf("recluster parentage %+v, want parent %s", rr, parent)
	}
	if rr.WarmFromIteration != parentRes.Iterations {
		t.Fatalf("warm_from_iteration = %d, want the parent's final boundary %d",
			rr.WarmFromIteration, parentRes.Iterations)
	}
	if rr.Job.MatrixVersion != 1 {
		t.Fatalf("child matrix_version = %d, want 1", rr.Job.MatrixVersion)
	}
	if v := e.poll(t, rr.Job.ID, 60*time.Second); v.State != StateDone {
		t.Fatalf("child finished %s (%s)", v.State, v.Error)
	}
	childRes := e.resultView(t, rr.Job.ID)
	if !childRes.WarmStart {
		t.Fatal("child result is not flagged warm_start")
	}
	if childRes.Iterations >= parentRes.Iterations {
		t.Fatalf("warm child took %d iterations, parent's cold run %d — the delta was small",
			childRes.Iterations, parentRes.Iterations)
	}

	// The lineage chains: patch again and recluster off the child.
	pr2 := e.patch(t, rr.Job.ID, smallDelta())
	if pr2.MatrixVersion != 2 || pr2.Rows != 202 {
		t.Fatalf("second patch outcome %+v, want version 2 with 202 rows", pr2)
	}
	if pr2.Lineage != parent {
		t.Fatalf("second patch lineage %q, want root %q", pr2.Lineage, parent)
	}
	rr2 := e.recluster(t, rr.Job.ID)
	if rr2.Job.ParentID != rr.Job.ID || rr2.Job.MatrixVersion != 2 {
		t.Fatalf("grandchild view %+v, want parent %s at version 2", rr2.Job, rr.Job.ID)
	}
	if v := e.poll(t, rr2.Job.ID, 60*time.Second); v.State != StateDone {
		t.Fatalf("grandchild finished %s (%s)", v.State, v.Error)
	}
}

// TestStreamReclusterEmptyDeltaMatchesParent pins the service-level
// half of the equivalence guarantee: reclustering without any patch
// resumes the parent's exact trajectory, so the child's result —
// residue, iteration count, every cluster membership — equals the
// parent's.
func TestStreamReclusterEmptyDeltaMatchesParent(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
	parent := e.submit(t, streamJobRequest(t, 2))
	if v := e.poll(t, parent, 60*time.Second); v.State != StateDone {
		t.Fatalf("parent finished %s (%s)", v.State, v.Error)
	}
	parentRes := e.resultView(t, parent)

	rr := e.recluster(t, parent)
	if v := e.poll(t, rr.Job.ID, 60*time.Second); v.State != StateDone {
		t.Fatalf("child finished %s (%s)", v.State, v.Error)
	}
	childRes := e.resultView(t, rr.Job.ID)
	if !childRes.WarmStart {
		t.Fatal("child result is not flagged warm_start")
	}
	if childRes.AvgResidue != parentRes.AvgResidue || childRes.Iterations != parentRes.Iterations {
		t.Fatalf("empty-delta recluster diverged: child (residue %v, %d iterations), parent (residue %v, %d iterations)",
			childRes.AvgResidue, childRes.Iterations, parentRes.AvgResidue, parentRes.Iterations)
	}
	if !reflect.DeepEqual(childRes.Clusters, parentRes.Clusters) {
		t.Fatal("empty-delta recluster produced different clusters than the parent")
	}
}

// TestStreamReclusterSeedConvergedRoot: a root that converges in
// seeding keeps the seed checkpoint as its handle, so its recluster is
// accepted (202, warm from iteration 0, never 409 no_checkpoint) and,
// with an empty delta, reproduces the root bit for bit.
func TestStreamReclusterSeedConvergedRoot(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
	req := streamJobRequest(t, 2)
	req.FLOC.Seeding = "anchored"
	parent := e.submit(t, req)
	if v := e.poll(t, parent, 60*time.Second); v.State != StateDone {
		t.Fatalf("parent finished %s (%s)", v.State, v.Error)
	}
	parentRes := e.resultView(t, parent)
	if parentRes.Iterations != 0 {
		t.Fatalf("parent took %d iterations; the test needs a root that converges in seeding", parentRes.Iterations)
	}

	rr := e.recluster(t, parent)
	if rr.WarmFromIteration != 0 {
		t.Fatalf("warm_from_iteration %d, want 0", rr.WarmFromIteration)
	}
	if v := e.poll(t, rr.Job.ID, 60*time.Second); v.State != StateDone {
		t.Fatalf("child finished %s (%s)", v.State, v.Error)
	}
	childRes := e.resultView(t, rr.Job.ID)
	if !childRes.WarmStart {
		t.Fatal("child result is not flagged warm_start")
	}
	childRes.WarmStart, childRes.DurationMillis, parentRes.DurationMillis = false, 0, 0
	if !reflect.DeepEqual(childRes, parentRes) {
		t.Fatalf("empty-delta recluster of a seed-converged root diverged:\n child %+v\nparent %+v", childRes, parentRes)
	}
}

// TestStreamLineageBusyConflicts is the race guard: while a recluster
// child of the lineage is running, both a matrix PATCH and a second
// recluster are refused with 409 lineage_busy — never silently
// applied. Once the child settles, the same requests succeed.
func TestStreamLineageBusyConflicts(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
	parent := e.submit(t, streamJobRequest(t, 3))
	if v := e.poll(t, parent, 60*time.Second); v.State != StateDone {
		t.Fatalf("parent finished %s (%s)", v.State, v.Error)
	}

	// Block every subsequent run (the recluster child included) until
	// released, so the busy window is deterministic.
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	e.s.runHook = func(ctx context.Context, _ *runSpec) (*ResultView, error) {
		running <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &ResultView{Algorithm: AlgoFLOC}, nil
	}

	rr := e.recluster(t, parent)
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("recluster child never started")
	}

	// PATCH races the running recluster → 409 lineage_busy.
	resp, data := e.do(t, http.MethodPatch, "/v1/jobs/"+parent+"/matrix", smallDelta())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("patch during recluster: status %d, body %s", resp.StatusCode, data)
	}
	if detail := decodeError(t, data); detail.Code != CodeLineageBusy {
		t.Fatalf("patch during recluster: code %q, want %q", detail.Code, CodeLineageBusy)
	}

	// A second recluster on the same lineage → 409 lineage_busy too.
	resp, data = e.do(t, http.MethodPost, "/v1/jobs/"+parent+":recluster", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second recluster: status %d, body %s", resp.StatusCode, data)
	}
	if detail := decodeError(t, data); detail.Code != CodeLineageBusy {
		t.Fatalf("second recluster: code %q, want %q", detail.Code, CodeLineageBusy)
	}

	close(release)
	if v := e.poll(t, rr.Job.ID, 10*time.Second); v.State != StateDone {
		t.Fatalf("child finished %s (%s)", v.State, v.Error)
	}

	// Idle again: the patch lands.
	pr := e.patch(t, parent, smallDelta())
	if pr.MatrixVersion != 1 {
		t.Fatalf("post-settle patch version = %d, want 1", pr.MatrixVersion)
	}

	// The conflicts were counted.
	resp, data = e.do(t, http.MethodGet, "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var mv MetricsView
	if err := json.Unmarshal(data, &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Jobs.LineageConflicts < 2 {
		t.Fatalf("lineage_conflicts = %d, want ≥ 2", mv.Jobs.LineageConflicts)
	}
	if mv.Jobs.MatrixPatches != 1 {
		t.Fatalf("matrix_patches = %d, want 1", mv.Jobs.MatrixPatches)
	}
	if mv.Jobs.Reclustered != 1 {
		t.Fatalf("reclustered = %d, want 1", mv.Jobs.Reclustered)
	}
}

// TestStreamValidationErrors exercises the refusal surface of the
// streaming endpoints.
func TestStreamValidationErrors(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 8})

	// Unknown jobs.
	resp, data := e.do(t, http.MethodPatch, "/v1/jobs/jdeadbeef/matrix", smallDelta())
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("patch unknown job: status %d, body %s", resp.StatusCode, data)
	}
	resp, data = e.do(t, http.MethodPost, "/v1/jobs/jdeadbeef:recluster", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("recluster unknown job: status %d, body %s", resp.StatusCode, data)
	}

	// An action-less POST on a job path is not a route.
	resp, data = e.do(t, http.MethodPost, "/v1/jobs/jdeadbeef", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST without action: status %d, body %s", resp.StatusCode, data)
	}

	// Streaming is FLOC-only.
	bicReq := &SubmitRequest{
		Algorithm: AlgoBicluster,
		Matrix:    MatrixPayload{CSV: "1,2,3\n4,5,6\n7,8,9\n1,3,5\n"},
		Bicluster: &BiclusterParams{K: 1, Delta: 5},
	}
	bicID := e.submit(t, bicReq)
	e.poll(t, bicID, 30*time.Second)
	resp, data = e.do(t, http.MethodPatch, "/v1/jobs/"+bicID+"/matrix", smallDelta())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("patch bicluster job: status %d, body %s", resp.StatusCode, data)
	}
	resp, data = e.do(t, http.MethodPost, "/v1/jobs/"+bicID+":recluster", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("recluster bicluster job: status %d, body %s", resp.StatusCode, data)
	}

	// Reclustering a non-terminal job is a 409.
	release := make(chan struct{})
	defer close(release)
	running := make(chan struct{}, 1)
	e.s.runHook = func(ctx context.Context, _ *runSpec) (*ResultView, error) {
		running <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &ResultView{Algorithm: AlgoFLOC}, nil
	}
	id := e.submit(t, streamJobRequest(t, 4))
	<-running
	resp, data = e.do(t, http.MethodPost, "/v1/jobs/"+id+":recluster", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("recluster running job: status %d, body %s", resp.StatusCode, data)
	}
	if detail := decodeError(t, data); detail.Code != CodeJobNotDone {
		t.Fatalf("recluster running job: code %q, want %q", detail.Code, CodeJobNotDone)
	}

	// An empty patch is rejected.
	resp, data = e.do(t, http.MethodPatch, "/v1/jobs/"+id+"/matrix", &MatrixPatchRequest{})
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty patch: status %d, body %s", resp.StatusCode, data)
	}
}

// TestDispatchReconstructsLineage is the coordinator failover
// contract, spoken directly: the original submission plus the recorded
// patches plus the parent's replicated checkpoint, dispatched to a
// completely separate node, produces bit-for-bit the same warm-start
// result the owner's own recluster child produced.
func TestDispatchReconstructsLineage(t *testing.T) {
	owner := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
	req := streamJobRequest(t, 5)

	parent := owner.submit(t, req)
	if v := owner.poll(t, parent, 60*time.Second); v.State != StateDone {
		t.Fatalf("parent finished %s (%s)", v.State, v.Error)
	}

	// Download the parent's final checkpoint (the replication surface
	// the coordinator polls).
	resp, ckBytes := owner.do(t, http.MethodGet, "/v1/internal/jobs/"+parent+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint download: status %d", resp.StatusCode)
	}

	// Owner-side recluster after a patch.
	delta := smallDelta()
	owner.patch(t, parent, delta)
	rr := owner.recluster(t, parent)
	if v := owner.poll(t, rr.Job.ID, 60*time.Second); v.State != StateDone {
		t.Fatalf("owner child finished %s (%s)", v.State, v.Error)
	}
	ownerRes := owner.resultView(t, rr.Job.ID)

	// Failover node: reconstruct from submission + patches + warm
	// checkpoint.
	fallback := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
	var dispatched struct {
		Job               JobView `json:"job"`
		WarmFromIteration int     `json:"warm_from_iteration"`
		MatrixVersion     int     `json:"matrix_version"`
	}
	resp, data := fallback.do(t, http.MethodPost, "/v1/internal/jobs", &DispatchRequest{
		ID:                  "jrebuilt0000000001",
		Submit:              *req,
		Patches:             []MatrixPatchRequest{*delta},
		WarmStartCheckpoint: ckBytes,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dispatch: status %d, body %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &dispatched); err != nil {
		t.Fatal(err)
	}
	if dispatched.MatrixVersion != 1 || dispatched.WarmFromIteration == 0 {
		t.Fatalf("dispatch response %s, want matrix_version 1 and a warm boundary", data)
	}
	if v := fallback.poll(t, dispatched.Job.ID, 60*time.Second); v.State != StateDone {
		t.Fatalf("rebuilt child finished %s (%s)", v.State, v.Error)
	}
	rebuiltRes := fallback.resultView(t, dispatched.Job.ID)

	if !rebuiltRes.WarmStart {
		t.Fatal("rebuilt result is not flagged warm_start")
	}
	if rebuiltRes.AvgResidue != ownerRes.AvgResidue || rebuiltRes.Iterations != ownerRes.Iterations {
		t.Fatalf("rebuilt warm run diverged: (residue %v, %d iterations) vs owner (residue %v, %d iterations)",
			rebuiltRes.AvgResidue, rebuiltRes.Iterations, ownerRes.AvgResidue, ownerRes.Iterations)
	}
	if !reflect.DeepEqual(rebuiltRes.Clusters, ownerRes.Clusters) {
		t.Fatal("rebuilt warm run produced different clusters than the owner's recluster")
	}
}
