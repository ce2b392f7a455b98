package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deltacluster/internal/service"
)

func f64(v float64) *float64 { return &v }

// smallPatch is one deltastream batch against a cols-wide matrix: an
// appended row, one revised entry, one retraction — every mutation
// kind in a single atomic batch.
func smallPatch(cols int) service.MatrixPatchRequest {
	row := make([]*float64, cols)
	for j := range row {
		row[j] = f64(0.25 * float64(j))
	}
	return service.MatrixPatchRequest{
		AppendRows: [][]*float64{row},
		Updates:    []service.CellPatch{{Row: 2, Col: 3, Value: f64(1.5)}},
		Retract:    []service.CellRef{{Row: 8, Col: 1}},
	}
}

func decodeErrCode(t *testing.T, body []byte) string {
	t.Helper()
	var eb service.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("undecodable error body %s: %v", body, err)
	}
	return eb.Error.Code
}

func coordMetrics(t *testing.T, baseURL string) MetricsView {
	t.Helper()
	st, body := do(t, http.MethodGet, baseURL+"/metrics", nil)
	if st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	var mv MetricsView
	if err := json.Unmarshal(body, &mv); err != nil {
		t.Fatal(err)
	}
	return mv
}

// TestCoordinatorPatchAndReclusterViaOwner is the streaming happy path
// through the proxy: patch a done job's lineage matrix, recluster it,
// and get a warm-started child that lands on the parent's owner — the
// backend already holding the lineage matrix and final checkpoint.
func TestCoordinatorPatchAndReclusterViaOwner(t *testing.T) {
	cl := startCluster(t, 2, nil, service.Options{Workers: 1, QueueCap: 8, CheckpointEvery: 1})

	id, _, _ := submitVia(t, cl.ts.URL, fastSubmit(t))
	if v := pollDone(t, cl.ts.URL, id, 30*time.Second); v.State != service.StateDone {
		t.Fatalf("parent finished %s", v.State)
	}
	parentRes := fetchResult(t, cl.ts.URL, id)

	// Patch through the coordinator: the response speaks public IDs.
	st, body := do(t, http.MethodPatch, cl.ts.URL+"/v1/jobs/"+id+"/matrix", smallPatch(18))
	if st != http.StatusOK {
		t.Fatalf("patch: status %d, body %s", st, body)
	}
	var pr service.MatrixPatchResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.JobID != id || pr.Lineage != id || pr.MatrixVersion != 1 || pr.Rows != 121 || pr.Cols != 18 {
		t.Fatalf("patch response %+v, want job/lineage %s version 1 shape 121x18", pr, id)
	}

	// A ragged append dies with the backend's validation, relayed.
	if st, body := do(t, http.MethodPatch, cl.ts.URL+"/v1/jobs/"+id+"/matrix",
		service.MatrixPatchRequest{AppendRows: [][]*float64{{f64(1)}}}); st != http.StatusBadRequest {
		t.Fatalf("ragged patch: status %d, body %s", st, body)
	}

	// The client cannot pick the child's ID — the coordinator mints it.
	if st, body := do(t, http.MethodPost, cl.ts.URL+"/v1/jobs/"+id+":recluster",
		service.ReclusterRequest{ChildID: "jcafecafe00000000"}); st != http.StatusBadRequest {
		t.Fatalf("recluster with child_id: status %d, body %s", st, body)
	}
	// Unknown actions 404.
	if st, _ := do(t, http.MethodPost, cl.ts.URL+"/v1/jobs/"+id+":frobnicate", nil); st != http.StatusNotFound {
		t.Fatalf("unknown action accepted")
	}

	st, body = do(t, http.MethodPost, cl.ts.URL+"/v1/jobs/"+id+":recluster", nil)
	if st != http.StatusAccepted {
		t.Fatalf("recluster: status %d, body %s", st, body)
	}
	var rr service.ReclusterResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ParentID != id || rr.Job.ID == "" || rr.Job.ID == id || rr.Job.ParentID != id {
		t.Fatalf("recluster response %+v, want fresh child of %s", rr, id)
	}
	if rr.WarmFromIteration != parentRes.Iterations {
		t.Fatalf("warm_from_iteration %d, want parent's %d", rr.WarmFromIteration, parentRes.Iterations)
	}

	child := rr.Job.ID
	v := pollDone(t, cl.ts.URL, child, 30*time.Second)
	if v.State != service.StateDone {
		t.Fatalf("child finished %s (error %q)", v.State, v.Error)
	}
	if v.ParentID != id {
		t.Fatalf("child view parent_id %q, want %s", v.ParentID, id)
	}
	childRes := fetchResult(t, cl.ts.URL, child)
	if !childRes.WarmStart {
		t.Fatalf("child result not marked warm_start: %+v", childRes)
	}
	if childRes.Iterations > parentRes.Iterations {
		t.Fatalf("warm child took %d iterations, more than the cold parent's %d",
			childRes.Iterations, parentRes.Iterations)
	}

	mv := coordMetrics(t, cl.ts.URL)
	if mv.Streaming.MatrixPatches != 1 || mv.Streaming.Reclusters != 1 || mv.Streaming.ReclusterFallbacks != 0 {
		t.Fatalf("streaming metrics %+v, want 1 patch, 1 recluster, 0 fallbacks", mv.Streaming)
	}
}

// TestCoordinatorStreamConflictsRelay: the backend's 409 contracts —
// lineage_busy while a run holds the matrix, job_not_done for a
// recluster of an unfinished job — pass through the proxy verbatim.
func TestCoordinatorStreamConflictsRelay(t *testing.T) {
	cl := startCluster(t, 1, nil, service.Options{Workers: 1, QueueCap: 8, CheckpointEvery: 1})
	id, _, _ := submitVia(t, cl.ts.URL, slowSubmit(t))

	st, body := do(t, http.MethodPatch, cl.ts.URL+"/v1/jobs/"+id+"/matrix", smallPatch(100))
	if st != http.StatusConflict || decodeErrCode(t, body) != service.CodeLineageBusy {
		t.Fatalf("patch under a live run: status %d code %s, want 409 lineage_busy", st, decodeErrCode(t, body))
	}
	st, body = do(t, http.MethodPost, cl.ts.URL+"/v1/jobs/"+id+":recluster", nil)
	if st != http.StatusConflict || decodeErrCode(t, body) != service.CodeJobNotDone {
		t.Fatalf("recluster of a running job: status %d code %s, want 409 job_not_done", st, decodeErrCode(t, body))
	}
	// Streaming writes against unknown jobs 404 at the coordinator.
	if st, _ := do(t, http.MethodPatch, cl.ts.URL+"/v1/jobs/jdeadbeef00000000/matrix", smallPatch(4)); st != http.StatusNotFound {
		t.Fatalf("patch of unknown job: status %d, want 404", st)
	}
	if st, _ := do(t, http.MethodPost, cl.ts.URL+"/v1/jobs/jdeadbeef00000000:recluster", nil); st != http.StatusNotFound {
		t.Fatalf("recluster of unknown job: status %d, want 404", st)
	}

	if st, _ := do(t, http.MethodDelete, cl.ts.URL+"/v1/jobs/"+id, nil); st != http.StatusOK && st != http.StatusAccepted {
		t.Fatalf("cancel: status %d", st)
	}
	pollDone(t, cl.ts.URL, id, 30*time.Second)
}

// TestCoordinatorReclusterFallsBackToReplica kills the backend holding
// a done job — lineage matrix, mutation log, final checkpoint, all
// gone — and reclusters anyway: the coordinator rebuilds the child on
// the surviving backend from the original submission, the recorded
// patch, and the replicated parent checkpoint.
func TestCoordinatorReclusterFallsBackToReplica(t *testing.T) {
	cl := startCluster(t, 2, nil, service.Options{Workers: 1, QueueCap: 8, CheckpointEvery: 1})

	id, _, _ := submitVia(t, cl.ts.URL, fastSubmit(t))
	if v := pollDone(t, cl.ts.URL, id, 30*time.Second); v.State != service.StateDone {
		t.Fatalf("parent finished %s", v.State)
	}
	owner := ownerOf(t, cl, id)
	var peer *node
	for _, nd := range cl.nodes {
		if nd != owner {
			peer = nd
		}
	}

	// The sync loop's done-tick pull must land the parent's final
	// boundary on the replica before the owner can be lost.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := do(t, http.MethodGet, peer.ts.URL+"/v1/internal/replicas/"+id+"/checkpoint", nil); st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parent checkpoint never reached the replica peer")
		}
		time.Sleep(20 * time.Millisecond)
	}

	st, body := do(t, http.MethodPatch, cl.ts.URL+"/v1/jobs/"+id+"/matrix", smallPatch(18))
	if st != http.StatusOK {
		t.Fatalf("patch: status %d, body %s", st, body)
	}

	owner.ts.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		mv := coordMetrics(t, cl.ts.URL)
		if mv.Backends.States[owner.ts.URL] == "down" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never marked the killed owner down")
		}
		time.Sleep(20 * time.Millisecond)
	}

	st, body = do(t, http.MethodPost, cl.ts.URL+"/v1/jobs/"+id+":recluster", nil)
	if st != http.StatusAccepted {
		t.Fatalf("fallback recluster: status %d, body %s", st, body)
	}
	var rr service.ReclusterResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.ParentID != id || rr.Job.ID == "" || rr.Job.ID == id {
		t.Fatalf("fallback recluster response %+v", rr)
	}
	if rr.WarmFromIteration <= 0 {
		t.Fatalf("fallback child warm_from_iteration %d, want a replicated boundary > 0", rr.WarmFromIteration)
	}

	child := rr.Job.ID
	v := pollDone(t, cl.ts.URL, child, 30*time.Second)
	if v.State != service.StateDone {
		t.Fatalf("fallback child finished %s (error %q)", v.State, v.Error)
	}
	if v.ParentID != id {
		t.Fatalf("fallback child parent_id %q, want %s", v.ParentID, id)
	}
	if v.MatrixVersion != 1 {
		t.Fatalf("fallback child matrix_version %d, want 1 (the recorded patch replayed)", v.MatrixVersion)
	}
	if res := fetchResult(t, cl.ts.URL, child); !res.WarmStart || len(res.Clusters) == 0 {
		t.Fatalf("fallback child result %+v, want a warm-start clustering", res)
	}

	mv := coordMetrics(t, cl.ts.URL)
	if mv.Streaming.ReclusterFallbacks != 1 {
		t.Fatalf("recluster_fallbacks %d, want 1", mv.Streaming.ReclusterFallbacks)
	}
}

// TestCoordinatorReclusterChildMigratesWarmFromSeedCheckpoint: the
// root converges in seeding, so its replicated handle is the seed
// checkpoint. Its recluster child is queued on the root's owner behind
// a slow job when that owner dies; the migrated child must warm-start
// from the replicated seed checkpoint, not restart cold, and on the
// unpatched matrix reproduce the root's clustering.
func TestCoordinatorReclusterChildMigratesWarmFromSeedCheckpoint(t *testing.T) {
	var (
		logMu sync.Mutex
		logs  []string
	)
	cl := startCluster(t, 2, func(o *Options) {
		o.Logf = func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}
	}, service.Options{Workers: 1, QueueCap: 8, CheckpointEvery: 1})

	req := fastSubmit(t)
	req.FLOC.Seeding = "anchored"
	root, _, _ := submitVia(t, cl.ts.URL, req)
	if v := pollDone(t, cl.ts.URL, root, 30*time.Second); v.State != service.StateDone {
		t.Fatalf("root finished %s", v.State)
	}
	rootRes := fetchResult(t, cl.ts.URL, root)
	if rootRes.Iterations != 0 {
		t.Fatalf("root took %d iterations; the test needs one that converges in seeding", rootRes.Iterations)
	}
	owner := ownerOf(t, cl, root)
	var peer *node
	for _, nd := range cl.nodes {
		if nd != owner {
			peer = nd
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := do(t, http.MethodGet, peer.ts.URL+"/v1/internal/replicas/"+root+"/checkpoint", nil); st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the root's seed checkpoint never reached the replica peer")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Occupy the owner's one worker, so the child waits in its queue.
	var slow string
	for try := 0; slow == ""; try++ {
		if try == 16 {
			t.Fatal("no slow job landed on the root's owner")
		}
		id, _, _ := submitVia(t, cl.ts.URL, slowSubmit(t))
		if ownerOf(t, cl, id) == owner {
			slow = id
			continue
		}
		if st, body := do(t, http.MethodDelete, cl.ts.URL+"/v1/jobs/"+id, nil); st != http.StatusOK && st != http.StatusAccepted {
			t.Fatalf("cancel: status %d, body %s", st, body)
		}
		pollDone(t, cl.ts.URL, id, 30*time.Second)
	}

	st, body := do(t, http.MethodPost, cl.ts.URL+"/v1/jobs/"+root+":recluster", nil)
	if st != http.StatusAccepted {
		t.Fatalf("recluster: status %d, body %s", st, body)
	}
	var rr service.ReclusterResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.WarmFromIteration != 0 {
		t.Fatalf("warm_from_iteration %d, want 0", rr.WarmFromIteration)
	}

	// Lose the owner with the child still queued. The slow job's cancel
	// is recorded at the coordinator and settled instead of migrated.
	owner.ts.Close()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = owner.svc.Shutdown(expired)
	do(t, http.MethodDelete, cl.ts.URL+"/v1/jobs/"+slow, nil)

	v := pollDone(t, cl.ts.URL, rr.Job.ID, 60*time.Second)
	if v.State != service.StateDone {
		t.Fatalf("migrated child finished %s (error %q)", v.State, v.Error)
	}
	childRes := fetchResult(t, cl.ts.URL, rr.Job.ID)
	if !childRes.WarmStart {
		t.Fatalf("migrated child result %+v, want a warm start", childRes)
	}
	childRes.WarmStart = false
	if !reflect.DeepEqual(childRes, rootRes) {
		t.Fatalf("migrated child differs from the root on the unpatched matrix:\n child %+v\n  root %+v", childRes, rootRes)
	}
	logMu.Lock()
	defer logMu.Unlock()
	migrated := false
	for _, line := range logs {
		if strings.Contains(line, "migrates cold") {
			t.Fatalf("coordinator log: %s", line)
		}
		migrated = migrated || strings.Contains(line, "job "+rr.Job.ID+" migrated")
	}
	if !migrated {
		t.Fatalf("the child was never migrated; logs:\n%s", strings.Join(logs, "\n"))
	}
}
