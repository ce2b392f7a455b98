package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// smallMatrix is the dataset behind smallJobRequest, as a *matrix.
// Matrix — the binary tests submit the same data through both
// transports and demand identical results.
func smallMatrix(t *testing.T) *matrix.Matrix {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Rows: 30, Cols: 8, NumClusters: 1,
		VolumeMean: 40, VolumeVariance: 0, RowColRatio: 4,
		TargetResidue: 2,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Matrix
}

// submitBinary posts a DSUB body and returns the accepted job ID.
func (e *testEnv) submitBinary(t *testing.T, body []byte) string {
	t.Helper()
	resp, err := e.ts.Client().Post(e.ts.URL+"/v1/jobs", ContentTypeBinaryMatrix, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary submit: status %d, err %v", resp.StatusCode, err)
	}
	return sr.Job.ID
}

// result fetches and decodes a done job's JSON result.
func (e *testEnv) result(t *testing.T, id string) *ResultView {
	t.Helper()
	resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d, body %s", id, resp.StatusCode, data)
	}
	var res ResultView
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	return &res
}

// TestBinarySubmitMatchesJSON is the transport-equivalence contract:
// the same matrix submitted as JSON rows and as a DCMX section, with
// the same parameters, must produce bit-identical clusterings.
func TestBinarySubmitMatchesJSON(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
	m := smallMatrix(t)
	params := &FLOCParams{K: 2, Delta: 6, Seed: 7}

	rows := make([][]float64, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	jsonID := e.submit(t, &SubmitRequest{
		Algorithm: AlgoFLOC,
		Matrix:    MatrixPayload{Rows: RowsJSON(rows)},
		FLOC:      params,
	})

	body, err := EncodeBinarySubmit(&SubmitRequest{Algorithm: AlgoFLOC, FLOC: params}, m)
	if err != nil {
		t.Fatal(err)
	}
	binID := e.submitBinary(t, body)

	for _, id := range []string{jsonID, binID} {
		if v := e.poll(t, id, 30*time.Second); v.State != StateDone {
			t.Fatalf("job %s finished %s (error %q), want done", id, v.State, v.Error)
		}
	}
	jr, br := e.result(t, jsonID), e.result(t, binID)
	jr.DurationMillis, br.DurationMillis = 0, 0 // wall clock, not part of the fingerprint
	if !reflect.DeepEqual(jr, br) {
		jb, _ := json.Marshal(jr)
		bb, _ := json.Marshal(br)
		t.Fatalf("JSON and binary submissions diverged:\n  json:   %s\n  binary: %s", jb, bb)
	}
}

// TestBinaryResultDownload checks the DRES egress path: a result
// fetched with Accept: x-deltacluster-matrix decodes to exactly the
// JSON result.
func TestBinaryResultDownload(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
	id := e.submit(t, smallJobRequest(t))
	if v := e.poll(t, id, 30*time.Second); v.State != StateDone {
		t.Fatalf("job finished %s, want done", v.State)
	}
	jsonRes := e.result(t, id)

	req, err := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", ContentTypeBinaryMatrix)
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data := new(bytes.Buffer)
	_, err = data.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("binary result: status %d, err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinaryMatrix {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentTypeBinaryMatrix)
	}
	binRes, err := DecodeBinaryResult(data.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jsonRes, binRes) {
		t.Fatalf("binary result diverged from JSON result:\n  json:   %+v\n  binary: %+v", jsonRes, binRes)
	}
}

// TestBinarySubmitRejectsCorruption: every framing violation dies with
// a 400 before any job is created.
func TestBinarySubmitRejectsCorruption(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 8})
	m := smallMatrix(t)
	good, err := EncodeBinarySubmit(&SubmitRequest{Algorithm: AlgoFLOC, FLOC: &FLOCParams{K: 2, Delta: 6}}, m)
	if err != nil {
		t.Fatal(err)
	}

	flip := func(data []byte, i int) []byte {
		out := append([]byte(nil), data...)
		out[i] ^= 0x01
		return out
	}
	cases := map[string][]byte{
		"bad magic":              flip(good, 0),
		"bad version":            flip(good, 4),
		"params corrupted":       flip(good, envelopeHeaderLen),
		"truncated":              good[:len(good)-5],
		"matrix checksum flip":   flip(good, len(good)-1),
		"rows in binary params":  encodeEnvelope(submitMagic, []byte(`{"matrix":{"rows":[[1]]}}`), matrix.EncodeBinary(m)),
		"empty body":             {},
		"json body binary route": []byte(`{"matrix":{"rows":[[1,2],[3,4]]}}`),
	}
	for name, body := range cases {
		resp, err := e.ts.Client().Post(e.ts.URL+"/v1/jobs", ContentTypeBinaryMatrix, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// A section in the retired dense version-1 layout, correctly framed
	// and checksummed, is refused by version.
	payload := make([]byte, 0, 32)
	for _, w := range []uint64{1, 2, math.Float64bits(1), math.Float64bits(2)} {
		payload = binary.LittleEndian.AppendUint64(payload, w)
	}
	v1 := binary.LittleEndian.AppendUint32([]byte("DCMX"), 1)
	v1 = binary.LittleEndian.AppendUint64(v1, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	v1 = append(append(v1, payload...), sum[:]...)
	body := encodeEnvelope(submitMagic, []byte(`{"floc":{"k":1,"delta":5}}`), v1)
	resp, err := e.ts.Client().Post(e.ts.URL+"/v1/jobs", ContentTypeBinaryMatrix, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "version 1") {
		t.Errorf("v1 DCMX section: status %d, body %s; want 400 naming version 1", resp.StatusCode, data)
	}

	resp, data = e.do(t, http.MethodGet, "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var mv MetricsView
	if err := json.Unmarshal(data, &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Jobs.Stored != 0 {
		t.Fatalf("stored = %d after rejected submissions, want 0", mv.Jobs.Stored)
	}
}

// TestBinaryDispatch drives the internal binary dispatch route the way
// the coordinator does: DispatchRequest params framed ahead of the
// DCMX bytes, job created under the caller-chosen ID.
func TestBinaryDispatch(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
	m := smallMatrix(t)
	body, err := EncodeBinaryDispatch(&DispatchRequest{
		ID:     "bin-dispatch-1",
		Submit: SubmitRequest{Algorithm: AlgoFLOC, FLOC: &FLOCParams{K: 2, Delta: 6, Seed: 7}},
	}, matrix.EncodeBinary(m))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ts.Client().Post(e.ts.URL+"/v1/internal/jobs", ContentTypeBinaryMatrix, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var dr DispatchResponse
	err = json.NewDecoder(resp.Body).Decode(&dr)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary dispatch: status %d, err %v", resp.StatusCode, err)
	}
	if dr.Job.ID != "bin-dispatch-1" {
		t.Fatalf("dispatched job ID = %q, want %q", dr.Job.ID, "bin-dispatch-1")
	}
	if v := e.poll(t, "bin-dispatch-1", 30*time.Second); v.State != StateDone {
		t.Fatalf("job finished %s (error %q), want done", v.State, v.Error)
	}
}

// TestBatchSubmitValidation: the batch envelope's own refusals.
func TestBatchSubmitValidation(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 8})

	resp, data := e.do(t, http.MethodPost, "/v1/jobs:batch", &BatchSubmitRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, body %s", resp.StatusCode, data)
	}
	if msg := decodeError(t, data).Message; msg != "batch: jobs is empty" {
		t.Fatalf("empty batch message %q", msg)
	}

	over := BatchSubmitRequest{Jobs: make([]SubmitRequest, MaxBatchJobs+1)}
	resp, data = e.do(t, http.MethodPost, "/v1/jobs:batch", &over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, body %s", resp.StatusCode, data)
	}
}

// TestBatchSubmitMixed: valid and invalid items in one batch get
// independent outcomes, and the accepted ones run to completion.
func TestBatchSubmitMixed(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})

	bad := SubmitRequest{
		Matrix: MatrixPayload{Rows: RowsJSON([][]float64{{1, 2}})},
		FLOC:   &FLOCParams{K: 1, Delta: 5},
	}
	bad.Matrix.Rows = json.RawMessage(`[[1,2],[3]]`) // ragged
	batch := BatchSubmitRequest{Jobs: []SubmitRequest{
		*smallJobRequest(t),
		bad,
		*smallJobRequest(t),
	}}
	resp, data := e.do(t, http.MethodPost, "/v1/jobs:batch", &batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, data)
	}
	var out BatchSubmitResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 2 || out.Rejected != 1 || len(out.Jobs) != 3 {
		t.Fatalf("accepted %d rejected %d items %d, want 2/1/3", out.Accepted, out.Rejected, len(out.Jobs))
	}
	for i, want := range []int{http.StatusAccepted, http.StatusBadRequest, http.StatusAccepted} {
		if out.Jobs[i].Index != i || out.Jobs[i].Status != want {
			t.Fatalf("item %d: %+v, want status %d", i, out.Jobs[i], want)
		}
	}
	if out.Jobs[1].Error == nil || out.Jobs[1].Error.Code != CodeInvalidRequest {
		t.Fatalf("rejected item error = %+v, want %s", out.Jobs[1].Error, CodeInvalidRequest)
	}
	for _, i := range []int{0, 2} {
		if v := e.poll(t, out.Jobs[i].Job.ID, 30*time.Second); v.State != StateDone {
			t.Fatalf("batch job %d finished %s, want done", i, v.State)
		}
	}
}

// TestBatchSubmitQueueFull: items refused by a full queue report 429
// individually; a batch with nothing accepted answers 429 with
// Retry-After at the top level.
func TestBatchSubmitQueueFull(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 1, RetryAfter: 2 * time.Second})
	var once sync.Once
	e.s.runHook = func(ctx context.Context, _ *runSpec) (*ResultView, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return &ResultView{Algorithm: AlgoFLOC}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer close(release)

	running := e.submit(t, smallJobRequest(t)) // occupies the worker
	<-started

	// Queue capacity 1: the first batch item fills it, the rest bounce.
	batch := BatchSubmitRequest{Jobs: []SubmitRequest{
		*smallJobRequest(t), *smallJobRequest(t), *smallJobRequest(t),
	}}
	resp, data := e.do(t, http.MethodPost, "/v1/jobs:batch", &batch)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("partial batch: status %d, body %s", resp.StatusCode, data)
	}
	var out BatchSubmitResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 1 || out.Rejected != 2 {
		t.Fatalf("accepted %d rejected %d, want 1/2", out.Accepted, out.Rejected)
	}
	for _, item := range out.Jobs[1:] {
		if item.Status != http.StatusTooManyRequests || item.Error == nil || item.Error.Code != CodeQueueFull {
			t.Fatalf("overflow item %+v, want 429 %s", item, CodeQueueFull)
		}
	}

	// Nothing left for a second batch: all-429 escalates to the top.
	resp, data = e.do(t, http.MethodPost, "/v1/jobs:batch",
		&BatchSubmitRequest{Jobs: []SubmitRequest{*smallJobRequest(t), *smallJobRequest(t)}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full batch: status %d, body %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	_ = running
}

// TestAcceptedViewPrecedesWorker makes the worker win the race against
// every submit path's 202 deterministically: the enqueue hook holds
// each handler, after its job is queued, until a worker has started
// that job. A view read after the enqueue would then say "running" (or
// "done"); the accepted body must report the job as it was accepted,
// "queued". The paths are the JSON and binary submits, the batch (two
// items, one hook wait each) and the JSON and binary internal
// dispatches.
func TestAcceptedViewPrecedesWorker(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 8})
	started := make(chan struct{}, 1) // one job in flight at a time: each hook waits for its own
	e.s.runHook = func(context.Context, *runSpec) (*ResultView, error) {
		started <- struct{}{}
		return &ResultView{Algorithm: AlgoFLOC}, nil
	}
	e.s.enqueueHook = func(string) { <-started }

	m := smallMatrix(t)
	params := &FLOCParams{K: 2, Delta: 6, Seed: 7}
	binSubmit, err := EncodeBinarySubmit(&SubmitRequest{Algorithm: AlgoFLOC, FLOC: params}, m)
	if err != nil {
		t.Fatal(err)
	}
	binDispatch, err := EncodeBinaryDispatch(&DispatchRequest{
		ID:     "race-bin-dispatch",
		Submit: SubmitRequest{Algorithm: AlgoFLOC, FLOC: params},
	}, matrix.EncodeBinary(m))
	if err != nil {
		t.Fatal(err)
	}
	jsonBody := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	post := func(path, contentType string, body []byte) []byte {
		t.Helper()
		resp, err := e.ts.Client().Post(e.ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s: status %d, body %s", path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}
	decode := func(data []byte, into any) {
		t.Helper()
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	var views []JobView

	var sr SubmitResponse
	decode(post("/v1/jobs", "application/json", jsonBody(smallJobRequest(t))), &sr)
	views = append(views, sr.Job)
	sr = SubmitResponse{}
	decode(post("/v1/jobs", ContentTypeBinaryMatrix, binSubmit), &sr)
	views = append(views, sr.Job)

	var br BatchSubmitResponse
	decode(post("/v1/jobs:batch", "application/json", jsonBody(&BatchSubmitRequest{
		Jobs: []SubmitRequest{*smallJobRequest(t), *smallJobRequest(t)},
	})), &br)
	for _, item := range br.Jobs {
		if item.Job == nil {
			t.Fatalf("batch item %d: no job view (status %d)", item.Index, item.Status)
		}
		views = append(views, *item.Job)
	}

	var dr DispatchResponse
	decode(post("/v1/internal/jobs", "application/json", jsonBody(&DispatchRequest{
		ID: "race-json-dispatch", Submit: *smallJobRequest(t),
	})), &dr)
	views = append(views, dr.Job)
	dr = DispatchResponse{}
	decode(post("/v1/internal/jobs", ContentTypeBinaryMatrix, binDispatch), &dr)
	views = append(views, dr.Job)

	if len(views) != 6 {
		t.Fatalf("collected %d accepted views, want 6", len(views))
	}
	for k, v := range views {
		if v.State != StateQueued || v.Started != nil {
			t.Errorf("accepted view %d (job %s) reports state %q, started %v; want queued", k, v.ID, v.State, v.Started)
		}
		if got := e.poll(t, v.ID, 30*time.Second); got.State != StateDone {
			t.Errorf("job %s finished %s, want done", v.ID, got.State)
		}
	}
}
