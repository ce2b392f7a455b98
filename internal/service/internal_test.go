package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deltacluster/internal/floc"
	"deltacluster/internal/synth"
)

// flocTestCSV caches the synthetic workload shared by the tests in
// this file: the 3000×100 matrix the interrupted-job test uses, big
// enough that iterations take visible wall time (so a poll loop can
// catch iteration 1 before convergence) on any machine.
var flocTestCSV struct {
	once sync.Once
	csv  string
	err  error
}

// flocTestSubmit builds a deliberately slow FLOC submission: dozens of
// improving iterations under random seeding — enough boundaries to
// checkpoint, cancel at and resume from before the run converges.
func flocTestSubmit(t *testing.T) *SubmitRequest {
	t.Helper()
	flocTestCSV.once.Do(func() {
		ds, err := synth.Generate(synth.Config{
			Rows: 3000, Cols: 100, NumClusters: 30,
			VolumeMean: 900, VolumeVariance: 0, RowColRatio: 5,
			TargetResidue: 4,
		}, 42)
		if err != nil {
			flocTestCSV.err = err
			return
		}
		var csv strings.Builder
		for i := 0; i < ds.Matrix.Rows(); i++ {
			for j := 0; j < ds.Matrix.Cols(); j++ {
				if j > 0 {
					csv.WriteByte(',')
				}
				if ds.Matrix.IsSpecified(i, j) {
					fmt.Fprintf(&csv, "%g", ds.Matrix.Get(i, j))
				}
			}
			csv.WriteByte('\n')
		}
		flocTestCSV.csv = csv.String()
	})
	if flocTestCSV.err != nil {
		t.Fatal(flocTestCSV.err)
	}
	return &SubmitRequest{
		Algorithm: AlgoFLOC,
		Matrix:    MatrixPayload{CSV: flocTestCSV.csv},
		FLOC:      &FLOCParams{K: 12, Delta: 8, Seed: 7, Seeding: "random", MaxIterations: 10_000},
	}
}

// fetchResult polls the job to done and returns its ResultView with
// the wall-clock field zeroed, so two runs of the same trajectory
// compare equal.
func fetchResult(t *testing.T, e *testEnv, id string) ResultView {
	t.Helper()
	v := e.poll(t, id, pollBudget(t))
	if v.State != StateDone {
		t.Fatalf("job %s finished %s (error %q), want done", id, v.State, v.Error)
	}
	resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, body %s", resp.StatusCode, data)
	}
	var res ResultView
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	res.DurationMillis = 0
	return res
}

func TestReadyzFlipsOnAdminDrain(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})

	resp, _ := e.do(t, http.MethodGet, "/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: status %d, want 200", resp.StatusCode)
	}

	resp, data := e.do(t, http.MethodPost, "/v1/admin/drain", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d, body %s", resp.StatusCode, data)
	}

	// Readiness is off, liveness stays on — the routing layer must
	// stop sending work without the process being reaped mid-drain.
	resp, data = e.do(t, http.MethodGet, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: status %d, want 503", resp.StatusCode)
	}
	if !bytes.Contains(data, []byte(`"draining": true`)) {
		t.Fatalf("readyz 503 body lacks draining marker: %s", data)
	}
	if resp, _ := e.do(t, http.MethodGet, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: status %d, want 200", resp.StatusCode)
	}

	// New work is refused with the draining error model.
	resp, data = e.do(t, http.MethodPost, "/v1/jobs", flocTestSubmit(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to drained node: status %d, body %s", resp.StatusCode, data)
	}

	// Drain is idempotent.
	resp, data = e.do(t, http.MethodPost, "/v1/admin/drain", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"stopped": 0`)) {
		t.Fatalf("second drain: status %d, body %s", resp.StatusCode, data)
	}
}

// TestAdminDrainStopsRunningJobAtCheckpoint: a running FLOC job on a
// drained node stops at a boundary, and its checkpoint is downloadable
// afterwards — the migration handoff a coordinator performs.
func TestAdminDrainStopsRunningJobAtCheckpoint(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4, CheckpointEvery: 1})

	req := flocTestSubmit(t)
	// A larger workload so the drain lands mid-run.
	req.FLOC.MaxIterations = 10_000
	id := e.submit(t, req)
	waitForIteration(t, e, id, 1)

	if resp, data := e.do(t, http.MethodPost, "/v1/admin/drain", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d, body %s", resp.StatusCode, data)
	}
	v := e.poll(t, id, 60*time.Second)
	if v.State != StateCancelled && v.State != StateDone {
		t.Fatalf("drained job finished %s, want cancelled (or done if it beat the drain)", v.State)
	}

	resp, data := e.do(t, http.MethodGet, "/v1/internal/jobs/"+id+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint download: status %d, body %s", resp.StatusCode, data)
	}
	ck, err := floc.DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("downloaded checkpoint: %v", err)
	}
	if ck.Iterations < 1 {
		t.Fatalf("checkpoint at iteration %d, want ≥ 1", ck.Iterations)
	}
	if etag := resp.Header.Get("ETag"); etag == "" {
		t.Fatal("checkpoint response has no ETag")
	} else {
		req, _ := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/internal/jobs/"+id+"/checkpoint", nil)
		req.Header.Set("If-None-Match", etag)
		resp, err := e.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("conditional checkpoint GET: status %d, want 304", resp.StatusCode)
		}
	}
}

// waitForIteration polls until the job reports at least n completed
// iterations (failing if it goes terminal first).
func waitForIteration(t *testing.T, e *testEnv, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(pollBudget(t))
	for {
		resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d, body %s", resp.StatusCode, data)
		}
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.State.terminal() {
			t.Fatalf("job finished %s before reaching iteration %d; enlarge the workload", v.State, n)
		}
		if v.Progress != nil && v.Progress.Iteration >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached iteration %d", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDispatchResumeBitIdentical is the migration contract at the
// service level: a job interrupted on node A and re-dispatched to
// node B with A's checkpoint produces a final clustering bit-identical
// to an uninterrupted single-node run.
func TestDispatchResumeBitIdentical(t *testing.T) {
	req := flocTestSubmit(t)

	// Reference: uninterrupted run.
	ref := newTestEnv(t, Options{Workers: 1, QueueCap: 4, CheckpointEvery: 1})
	refID := ref.submit(t, req)
	want := fetchResult(t, ref, refID)

	// Interrupted: same job on a second node, cancelled after the
	// first boundary, checkpoint downloaded.
	a := newTestEnv(t, Options{Workers: 1, QueueCap: 4, CheckpointEvery: 1})
	aID := a.submit(t, req)
	waitForIteration(t, a, aID, 1)
	if resp, data := a.do(t, http.MethodDelete, "/v1/jobs/"+aID, nil); resp.StatusCode >= 300 {
		t.Fatalf("cancel: status %d, body %s", resp.StatusCode, data)
	}
	a.poll(t, aID, pollBudget(t))
	resp, ckBytes := a.do(t, http.MethodGet, "/v1/internal/jobs/"+aID+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint download: status %d, body %s", resp.StatusCode, ckBytes)
	}

	// Migrated: dispatch to a third node resuming from the checkpoint.
	b := newTestEnv(t, Options{Workers: 1, QueueCap: 4, CheckpointEvery: 1})
	var dr DispatchResponse
	resp, data := b.do(t, http.MethodPost, "/v1/internal/jobs", &DispatchRequest{
		ID:               "jmigrated000000001",
		ResumeCheckpoint: ckBytes,
		Submit:           *req,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dispatch: status %d, body %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.ResumedFromIteration < 1 {
		t.Fatalf("dispatch resumed from iteration %d, want ≥ 1 (zero-recompute audit)", dr.ResumedFromIteration)
	}
	got := fetchResult(t, b, "jmigrated000000001")

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated result differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}

	// Redelivery of the same dispatch is idempotent: 200, same job,
	// not a second run.
	resp, data = b.do(t, http.MethodPost, "/v1/internal/jobs", &DispatchRequest{
		ID:               "jmigrated000000001",
		ResumeCheckpoint: ckBytes,
		Submit:           *req,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("redelivered dispatch: status %d, body %s", resp.StatusCode, data)
	}
}

// putRaw PUTs raw bytes and returns the response.
func putRaw(t *testing.T, e *testEnv, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// encodedCheckpoint builds a syntactically valid DCKP encoding at the
// given boundary iteration.
func encodedCheckpoint(t *testing.T, iterations int) []byte {
	t.Helper()
	trace := make([]float64, iterations+1)
	for i := range trace {
		trace[i] = float64(10 - i)
	}
	data, err := floc.EncodeCheckpoint(&floc.Checkpoint{
		Iterations: iterations,
		Trace:      trace,
		Clusters:   []floc.ClusterState{{Rows: []int{0, 1}, Cols: []int{0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReplicaEndpoints(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})

	// Garbage is rejected at the door: never stored, never resumable.
	resp, data := putRaw(t, e, "/v1/internal/replicas/j1/checkpoint", []byte("not a checkpoint"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage checkpoint: status %d, body %s", resp.StatusCode, data)
	}
	if resp, _ := e.do(t, http.MethodGet, "/v1/internal/replicas/j1/checkpoint", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("garbage was stored: status %d", resp.StatusCode)
	}

	// A valid replica round-trips bit for bit.
	ck5 := encodedCheckpoint(t, 5)
	if resp, data := putRaw(t, e, "/v1/internal/replicas/j1/checkpoint", ck5); resp.StatusCode != http.StatusOK {
		t.Fatalf("put checkpoint: status %d, body %s", resp.StatusCode, data)
	}
	resp, data = e.do(t, http.MethodGet, "/v1/internal/replicas/j1/checkpoint", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, ck5) {
		t.Fatalf("get checkpoint: status %d, %d bytes (want %d)", resp.StatusCode, len(data), len(ck5))
	}
	if got := resp.Header.Get(checkpointIterationsHeader); got != "5" {
		t.Fatalf("iterations header %q, want 5", got)
	}

	// Stale replicas are acknowledged but never regress the stored one
	// (replication is monotonic under retries and reordering).
	if resp, data := putRaw(t, e, "/v1/internal/replicas/j1/checkpoint", encodedCheckpoint(t, 2)); resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"stored": false`)) {
		t.Fatalf("stale put: status %d, body %s", resp.StatusCode, data)
	}
	if resp, data := e.do(t, http.MethodGet, "/v1/internal/replicas/j1/checkpoint", nil); resp.StatusCode != http.StatusOK || !bytes.Equal(data, ck5) {
		t.Fatalf("stale put regressed the replica: status %d", resp.StatusCode)
	}

	// Metadata: opaque JSON in, same JSON out; non-JSON rejected.
	meta := []byte(`{"id":"j1","owner":"b0","body":{"algorithm":"floc"}}`)
	if resp, data := putRaw(t, e, "/v1/internal/replicas/j1/meta", meta); resp.StatusCode != http.StatusOK {
		t.Fatalf("put meta: status %d, body %s", resp.StatusCode, data)
	}
	if resp, data := putRaw(t, e, "/v1/internal/replicas/j1/meta", []byte("{broken")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken meta accepted: status %d, body %s", resp.StatusCode, data)
	}
	resp, data = e.do(t, http.MethodGet, "/v1/internal/replicas/j1/meta", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, meta) {
		t.Fatalf("get meta: status %d, body %s", resp.StatusCode, data)
	}

	// Delete drops both halves; a second delete reports nothing held.
	if resp, data := e.do(t, http.MethodDelete, "/v1/internal/replicas/j1", nil); resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"deleted": true`)) {
		t.Fatalf("delete: status %d, body %s", resp.StatusCode, data)
	}
	if resp, _ := e.do(t, http.MethodGet, "/v1/internal/replicas/j1/meta", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("meta survived delete: status %d", resp.StatusCode)
	}
	if resp, data := e.do(t, http.MethodDelete, "/v1/internal/replicas/j1", nil); resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"deleted": false`)) {
		t.Fatalf("second delete: status %d, body %s", resp.StatusCode, data)
	}
}

// TestReplicaStoreEviction: the table is bounded; the least-recently
// written entry is evicted when full.
func TestReplicaStoreEviction(t *testing.T) {
	rs := newReplicaStore(2)
	rs.putMeta("a", []byte(`{}`))
	rs.putMeta("b", []byte(`{}`))
	rs.putMeta("a", []byte(`{"touched":2}`)) // refresh a; b is now oldest
	rs.putMeta("c", []byte(`{}`))            // evicts b
	if rs.count() != 2 {
		t.Fatalf("count %d, want 2", rs.count())
	}
	if _, _, _, ok := rs.get("b"); ok {
		t.Fatal("least-recently-written entry b survived eviction")
	}
	for _, id := range []string{"a", "c"} {
		if _, _, _, ok := rs.get(id); !ok {
			t.Fatalf("entry %s evicted, want b", id)
		}
	}
}
