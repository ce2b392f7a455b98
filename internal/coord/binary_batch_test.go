package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"deltacluster/internal/matrix"
	"deltacluster/internal/service"
	"deltacluster/internal/synth"
)

// fastMatrix is fastSubmit's matrix decoded from the same CSV — the
// binary tests push identical data through both transports.
func fastMatrix(t *testing.T) *matrix.Matrix {
	t.Helper()
	m, err := matrix.Read(strings.NewReader(synthCSV(t, 120, 18, 3, 70)), matrix.IOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCoordinatorBinarySubmitProxy: a DSUB submission through the
// coordinator reaches a backend with the DCMX bytes intact, runs to
// the same result as the equivalent JSON submission, and the binary
// result download relays through the coordinator verbatim.
func TestCoordinatorBinarySubmitProxy(t *testing.T) {
	cl := startCluster(t, 2, nil, service.Options{Workers: 1, QueueCap: 8})

	jreq := fastSubmit(t)
	body, err := service.EncodeBinarySubmit(&service.SubmitRequest{
		Algorithm: service.AlgoFLOC,
		FLOC:      jreq.FLOC,
	}, fastMatrix(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(cl.ts.URL+"/v1/jobs", service.ContentTypeBinaryMatrix, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary submit: status %d, body %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	binID := sr.Job.ID

	jsonID, _, _ := submitVia(t, cl.ts.URL, jreq)
	for _, id := range []string{binID, jsonID} {
		if v := pollDone(t, cl.ts.URL, id, 30*time.Second); v.State != service.StateDone {
			t.Fatalf("job %s finished %s (error %q), want done", id, v.State, v.Error)
		}
	}
	binRes, jsonRes := fetchResult(t, cl.ts.URL, binID), fetchResult(t, cl.ts.URL, jsonID)
	if !reflect.DeepEqual(binRes, jsonRes) {
		t.Fatalf("binary and JSON submissions diverged through the coordinator:\n  binary: %+v\n  json:   %+v", binRes, jsonRes)
	}

	// The Accept header must pass through: a DRES download via the
	// coordinator decodes to the same result.
	req, err := http.NewRequest(http.MethodGet, cl.ts.URL+"/v1/jobs/"+binID+"/result", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", service.ContentTypeBinaryMatrix)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary result: status %d, body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != service.ContentTypeBinaryMatrix {
		t.Fatalf("Content-Type = %q, want %q", ct, service.ContentTypeBinaryMatrix)
	}
	dres, err := service.DecodeBinaryResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	dres.DurationMillis = 0
	if !reflect.DeepEqual(*dres, binRes) {
		t.Fatalf("DRES download diverged from JSON result:\n  dres: %+v\n  json: %+v", *dres, binRes)
	}
}

// TestCoordinatorBatchFanout: a batch through the coordinator routes
// every item independently across the ring, refusals stay per-item,
// and each accepted item's result matches an individually submitted
// copy of the same job.
func TestCoordinatorBatchFanout(t *testing.T) {
	cl := startCluster(t, 2, nil, service.Options{Workers: 2, QueueCap: 16})

	status, data := do(t, http.MethodPost, cl.ts.URL+"/v1/jobs:batch", &service.BatchSubmitRequest{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, body %s", status, data)
	}

	bad := service.SubmitRequest{
		Matrix: service.MatrixPayload{Rows: json.RawMessage(`[[1,2],[3]]`)}, // ragged
		FLOC:   &service.FLOCParams{K: 1, Delta: 5},
	}
	batch := service.BatchSubmitRequest{Jobs: []service.SubmitRequest{
		*fastSubmit(t), bad, *fastSubmit(t),
	}}
	status, data = do(t, http.MethodPost, cl.ts.URL+"/v1/jobs:batch", &batch)
	if status != http.StatusAccepted {
		t.Fatalf("batch: status %d, body %s", status, data)
	}
	var out service.BatchSubmitResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 2 || out.Rejected != 1 || len(out.Jobs) != 3 {
		t.Fatalf("accepted %d rejected %d items %d, want 2/1/3", out.Accepted, out.Rejected, len(out.Jobs))
	}
	if item := out.Jobs[1]; item.Status != http.StatusBadRequest || item.Error == nil {
		t.Fatalf("invalid item outcome %+v, want a relayed 400", item)
	}
	if out.Jobs[0].Job.ID == out.Jobs[2].Job.ID {
		t.Fatalf("batch items share job ID %s", out.Jobs[0].Job.ID)
	}

	// Every accepted item must equal an individually submitted copy.
	soloID, _, _ := submitVia(t, cl.ts.URL, fastSubmit(t))
	if v := pollDone(t, cl.ts.URL, soloID, 30*time.Second); v.State != service.StateDone {
		t.Fatalf("solo job finished %s, want done", v.State)
	}
	soloRes := fetchResult(t, cl.ts.URL, soloID)
	for _, i := range []int{0, 2} {
		id := out.Jobs[i].Job.ID
		if v := pollDone(t, cl.ts.URL, id, 30*time.Second); v.State != service.StateDone {
			t.Fatalf("batch job %d (%s) finished %s, want done", i, id, v.State)
		}
		if res := fetchResult(t, cl.ts.URL, id); !reflect.DeepEqual(res, soloRes) {
			t.Fatalf("batch item %d diverged from the individually submitted job:\n  batch: %+v\n  solo:  %+v", i, res, soloRes)
		}
	}
}

// retainedDCMX reads the DCMX bytes a routing entry keeps.
func retainedDCMX(t *testing.T, c *Coordinator, id string) (dcmx []byte, owner string, replicas []string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		t.Fatalf("no routing entry for %s", id)
	}
	return j.binMatrix, j.owner, append([]string(nil), j.replicas...)
}

// waitFor polls cond every 20ms until it holds or the timeout lapses.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCoordinatorRetainsExactDCMX pins what a done binary job costs
// the coordinator: its routing entry keeps an exact-size copy of the
// DCMX section (len == cap == the canonical encoding of the ratings
// stand-in), not a window into the request body that would pin the
// body's read slack and params, and it stays that way through a
// failover redispatch and a lineage rebuild that forward those bytes.
func TestCoordinatorRetainsExactDCMX(t *testing.T) {
	ds, err := synth.MovieLens(synth.DefaultMovieLensConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Matrix
	want := len(matrix.EncodeBinary(m))
	cl := startCluster(t, 3, nil, service.Options{Workers: 1, QueueCap: 8, CheckpointEvery: 1})
	nodeAt := func(url string) *node {
		for _, nd := range cl.nodes {
			if nd.ts.URL == url {
				return nd
			}
		}
		t.Fatalf("no node at %s", url)
		return nil
	}
	check := func(stage, id string) []byte {
		t.Helper()
		dcmx, _, _ := retainedDCMX(t, cl.coord, id)
		if len(dcmx) != want || cap(dcmx) != want {
			t.Fatalf("%s: job %s retains len %d cap %d, want both %d (the encoding's size)", stage, id, len(dcmx), cap(dcmx), want)
		}
		return dcmx
	}

	body, err := service.EncodeBinarySubmit(&service.SubmitRequest{
		Algorithm: service.AlgoFLOC,
		// δ=2 (not the paper's 1) so the run completes an iteration and
		// leaves a final boundary for the rebuild to warm-start from.
		FLOC: &service.FLOCParams{K: 10, Delta: 2, Seed: 7, MaxIterations: 40,
			Seeding: "anchored", Occupancy: 0.6, Workers: 1},
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(cl.ts.URL+"/v1/jobs", service.ContentTypeBinaryMatrix, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary submit: status %d, body %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	id := sr.Job.ID
	root := check("submit", id)
	if !bytes.Equal(root, matrix.EncodeBinary(m)) {
		t.Fatal("retained DCMX differs from the client's section")
	}

	// Failover: lose the owner before the job can finish. The
	// coordinator re-dispatches the retained bytes to a survivor.
	_, first, _ := retainedDCMX(t, cl.coord, id)
	nodeAt(first).ts.Close()
	waitFor(t, "the failover migration", 30*time.Second, func() bool {
		return coordMetrics(t, cl.ts.URL).Jobs.Migrations >= 1
	})
	if v := pollDone(t, cl.ts.URL, id, 60*time.Second); v.State != service.StateDone {
		t.Fatalf("migrated job finished %s (error %q), want done", v.State, v.Error)
	}
	check("failover", id)

	// Lineage rebuild: with the new owner lost too, a recluster
	// rebuilds the child on the last backend from the retained bytes,
	// the recorded patch and the replicated final checkpoint.
	_, second, replicas := retainedDCMX(t, cl.coord, id)
	if second == first || len(replicas) != 1 {
		t.Fatalf("after failover: owner %s (was %s), replicas %v", second, first, replicas)
	}
	waitFor(t, "the final checkpoint on the replica", 30*time.Second, func() bool {
		st, _ := do(t, http.MethodGet, replicas[0]+"/v1/internal/replicas/"+id+"/checkpoint", nil)
		return st == http.StatusOK
	})
	if st, body := do(t, http.MethodPatch, cl.ts.URL+"/v1/jobs/"+id+"/matrix", smallPatch(m.Cols())); st != http.StatusOK {
		t.Fatalf("patch: status %d, body %s", st, body)
	}
	nodeAt(second).ts.Close()
	waitFor(t, "the second owner marked down", 10*time.Second, func() bool {
		return coordMetrics(t, cl.ts.URL).Backends.States[second] == "down"
	})
	st, data := do(t, http.MethodPost, cl.ts.URL+"/v1/jobs/"+id+":recluster", nil)
	if st != http.StatusAccepted {
		t.Fatalf("recluster: status %d, body %s", st, data)
	}
	var rr service.ReclusterResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if v := pollDone(t, cl.ts.URL, rr.Job.ID, 60*time.Second); v.State != service.StateDone {
		t.Fatalf("rebuilt child finished %s (error %q), want done", v.State, v.Error)
	}
	if got := coordMetrics(t, cl.ts.URL).Streaming.ReclusterFallbacks; got != 1 {
		t.Fatalf("recluster_fallbacks %d, want 1 (a rebuild from the retained bytes)", got)
	}
	if child := check("rebuild", rr.Job.ID); &child[0] != &root[0] {
		t.Fatal("rebuilt child holds its own copy of the lineage's DCMX bytes, want the root's")
	}
	check("rebuild (root)", id)
}
