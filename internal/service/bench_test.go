package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
	"deltacluster/internal/synth"
)

// BenchmarkServiceThroughput measures end-to-end jobs per second
// through the HTTP surface: each op submits a real (tiny) FLOC job
// over the wire and polls it to completion. The pool runs at its
// default width, so the figure reflects the whole path — JSON decode,
// validation, queueing, a genuine engine run, store bookkeeping and
// the result fetch — not just the engine.
func BenchmarkServiceThroughput(b *testing.B) {
	s := New(Options{Workers: 4, QueueCap: 4096, TTL: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()

	// A fixed 12x6 matrix with an obvious 3x3 shifted block: big
	// enough to exercise the full FLOC pipeline, small enough that the
	// service overhead is visible next to it.
	rows := make([][]float64, 12)
	for i := range rows {
		rows[i] = make([]float64, 6)
		for j := range rows[i] {
			rows[i][j] = float64((i*7+j*13)%10) * 50
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			rows[i][j] = float64(i*10 + j*5)
		}
	}
	req := SubmitRequest{
		Algorithm: AlgoFLOC,
		Matrix:    MatrixPayload{Rows: RowsJSON(rows)},
		FLOC:      &FLOCParams{K: 2, Delta: 40, Seed: 3},
	}
	body, err := json.Marshal(&req)
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var sr SubmitResponse
			err = json.NewDecoder(resp.Body).Decode(&sr)
			_ = resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				b.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
			}
			id := sr.Job.ID
			for {
				resp, err := client.Get(ts.URL + "/v1/jobs/" + id)
				if err != nil {
					b.Fatal(err)
				}
				var v JobView
				err = json.NewDecoder(resp.Body).Decode(&v)
				_ = resp.Body.Close()
				if err != nil {
					b.Fatal(err)
				}
				if v.State.terminal() {
					if v.State != StateDone {
						b.Fatalf("job %s finished %s (error %q)", id, v.State, v.Error)
					}
					break
				}
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
}

// BenchmarkSubmitValidation measures the synchronous submission path
// alone (decode + validate + enqueue + respond), with the engines
// stubbed to instant completion.
func BenchmarkSubmitValidation(b *testing.B) {
	s := New(Options{Workers: 4, QueueCap: 1 << 20, TTL: time.Hour})
	s.runHook = func(_ context.Context, _ *runSpec) (*ResultView, error) {
		return &ResultView{Algorithm: AlgoFLOC}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()

	req := SubmitRequest{
		Matrix: MatrixPayload{Rows: RowsJSON([][]float64{{1.5, 1.5}, {1.5, 1.5}})},
		FLOC:   &FLOCParams{K: 1, Delta: 5},
	}
	body, err := json.Marshal(&req)
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: status %d", resp.StatusCode)
		}
	}
}

// BenchmarkSubmitBinary measures the binary ingest path: a realistic
// 128x16 matrix as a DSUB envelope, engines stubbed — the float-parse
// cost JSON pays and DCMX does not is the whole difference.
func BenchmarkSubmitBinary(b *testing.B) {
	s := New(Options{Workers: 4, QueueCap: 1 << 20, TTL: time.Hour})
	s.runHook = func(_ context.Context, _ *runSpec) (*ResultView, error) {
		return &ResultView{Algorithm: AlgoFLOC}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()

	rows := make([][]float64, 128)
	for i := range rows {
		rows[i] = make([]float64, 16)
		for j := range rows[i] {
			rows[i][j] = float64((i*5+j*11)%97) / 3
		}
	}
	m, err := matrix.NewFromRows(rows)
	if err != nil {
		b.Fatal(err)
	}
	body, err := EncodeBinarySubmit(&SubmitRequest{FLOC: &FLOCParams{K: 1, Delta: 5}}, m)
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/jobs", ContentTypeBinaryMatrix, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit: status %d", resp.StatusCode)
		}
	}
}

// BenchmarkSubmitBatch measures batch amortization: 32 small jobs per
// request, one decode pass and one store sweep instead of 32. The
// figure to compare against is 32x BenchmarkSubmitValidation.
func BenchmarkSubmitBatch(b *testing.B) {
	s := New(Options{Workers: 4, QueueCap: 1 << 20, TTL: time.Hour})
	s.runHook = func(_ context.Context, _ *runSpec) (*ResultView, error) {
		return &ResultView{Algorithm: AlgoFLOC}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()

	const perBatch = 32
	one := SubmitRequest{
		Matrix: MatrixPayload{Rows: RowsJSON([][]float64{{1.5, 1.5}, {1.5, 1.5}})},
		FLOC:   &FLOCParams{K: 1, Delta: 5},
	}
	batch := BatchSubmitRequest{Jobs: make([]SubmitRequest, perBatch)}
	for i := range batch.Jobs {
		batch.Jobs[i] = one
	}
	body, err := json.Marshal(&batch)
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("batch: status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*perBatch/b.Elapsed().Seconds(), "jobs/sec")
}

// BenchmarkLineagePatchRecluster measures the streaming loop on a
// parked lineage: each op PATCHes 20 sparse rows (6% rated, as
// perfbench's serve-ratings sessions append) onto the idle lineage of
// a done ratings job, reclusters it, and waits for the warm-start
// child to be done. The op covers the PATCH (a log append), the child's head build
// (decoding the base section and replaying the log), the warm run and
// the HTTP round trips. Each op gets a fresh root, submitted and run to
// done with the timer stopped, so the lineage and its log are the same
// size in every op. The root is the ratings stand-in as a DCMX section
// at the served MovieLens configuration, with one pool worker.
func BenchmarkLineagePatchRecluster(b *testing.B) {
	ds, err := synth.MovieLens(synth.DefaultMovieLensConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	m := ds.Matrix
	submit, err := EncodeBinarySubmit(&SubmitRequest{
		Algorithm: AlgoFLOC,
		FLOC: &FLOCParams{K: 10, Delta: 1, Seed: 1, MaxIterations: 40,
			Seeding: "anchored", Occupancy: 0.6, Workers: 1},
	}, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(20)
	var patch MatrixPatchRequest
	for i := 0; i < 20; i++ {
		row := make([]*float64, m.Cols())
		for j := range row {
			if rng.Bool(0.06) {
				v := float64(rng.UniformInt(1, 10))
				row[j] = &v
			}
		}
		patch.AppendRows = append(patch.AppendRows, row)
	}
	patchBody, err := json.Marshal(&patch)
	if err != nil {
		b.Fatal(err)
	}

	s := New(Options{Workers: 1, QueueCap: 16, TTL: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	}()
	client := ts.Client()
	call := func(method, path, ct string, body []byte, want int, out any) {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != want {
			b.Fatalf("%s %s: status %d (want %d), err %v, body %s", method, path, resp.StatusCode, want, err, data)
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				b.Fatal(err)
			}
		}
	}
	// The wait reads the store, not GET /v1/jobs/{id}: an HTTP poll
	// allocates, and the number of polls moves with the child's run
	// time, which would make allocs/op a timing figure.
	awaitDone := func(id string) {
		for {
			v, ok := s.store.view(id)
			if ok && v.State.terminal() {
				if v.State != StateDone {
					b.Fatalf("job %s finished %s (error %q)", id, v.State, v.Error)
				}
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var sr SubmitResponse
		call(http.MethodPost, "/v1/jobs", ContentTypeBinaryMatrix, submit, http.StatusAccepted, &sr)
		awaitDone(sr.Job.ID)
		b.StartTimer()

		call(http.MethodPatch, "/v1/jobs/"+sr.Job.ID+"/matrix", "application/json", patchBody, http.StatusOK, nil)
		var rr ReclusterResponse
		call(http.MethodPost, fmt.Sprintf("/v1/jobs/%s:recluster", sr.Job.ID), "application/json", nil, http.StatusAccepted, &rr)
		awaitDone(rr.Job.ID)
	}
}
