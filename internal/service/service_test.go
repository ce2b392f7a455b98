package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// assertGoroutinesStabilize waits for the goroutine count to settle
// back to the before-mark — the pool's zero-leak guarantee.
func assertGoroutinesStabilize(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fakeClock is a settable clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testEnv is one service instance behind an httptest listener.
type testEnv struct {
	s  *Server
	ts *httptest.Server
}

func newTestEnv(t *testing.T, opts Options) *testEnv {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return &testEnv{s: s, ts: ts}
}

func (e *testEnv) do(t *testing.T, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
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

// submit posts the request and returns the accepted job ID.
func (e *testEnv) submit(t *testing.T, req any) string {
	t.Helper()
	resp, data := e.do(t, http.MethodPost, "/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("submit: decoding %s: %v", data, err)
	}
	if sr.Job.ID == "" || sr.Job.State != StateQueued {
		t.Fatalf("submit: unexpected job view %+v", sr.Job)
	}
	return sr.Job.ID
}

// pollBudget returns how long a test may wait on a job: the time left
// before the test binary's deadline (go test -timeout), less a margin
// for the test's own failure report and cleanup, or 60 s when there is
// no deadline. A fixed budget cannot serve every build: under the
// deltadebug tag's from-scratch checks a job on the 3000×100 fixture
// runs for about a minute.
func pollBudget(t *testing.T) time.Duration {
	deadline, ok := t.Deadline()
	if !ok {
		return 60 * time.Second
	}
	return time.Until(deadline) - 30*time.Second
}

// poll waits until the job reaches a terminal state.
func (e *testEnv) poll(t *testing.T, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d, body %s", id, resp.StatusCode, data)
		}
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.State.terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func decodeError(t *testing.T, data []byte) ErrorDetail {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("decoding error body %s: %v", data, err)
	}
	return eb.Error
}

// smallJobRequest is a tiny FLOC submission over a synthetic matrix
// with one embedded coherent cluster.
func smallJobRequest(t *testing.T) *SubmitRequest {
	t.Helper()
	ds, err := synth.Generate(synth.Config{
		Rows: 30, Cols: 8, NumClusters: 1,
		VolumeMean: 40, VolumeVariance: 0, RowColRatio: 4,
		TargetResidue: 2,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, ds.Matrix.Rows())
	for i := range rows {
		rows[i] = ds.Matrix.Row(i) // NaN = missing; RowsJSON renders it as null
	}
	return &SubmitRequest{
		Algorithm: AlgoFLOC,
		Matrix:    MatrixPayload{Rows: RowsJSON(rows)},
		FLOC:      &FLOCParams{K: 2, Delta: 6, Seed: 7},
	}
}

func TestSubmitPollResultHappyPath(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})

	id := e.submit(t, smallJobRequest(t))
	view := e.poll(t, id, 30*time.Second)
	if view.State != StateDone {
		t.Fatalf("job finished %s (error %q), want done", view.State, view.Error)
	}
	if view.Started == nil || view.Finished == nil {
		t.Fatalf("terminal view missing timestamps: %+v", view)
	}
	if view.Progress == nil {
		t.Fatal("no progress was reported for a FLOC job")
	}
	if view.Progress.Attempt != 1 {
		t.Fatalf("progress attempt = %d, want 1", view.Progress.Attempt)
	}

	resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, body %s", resp.StatusCode, data)
	}
	var res ResultView
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != AlgoFLOC || res.Partial {
		t.Fatalf("unexpected result header %+v", res)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("result has no clusters")
	}
	for i, c := range res.Clusters {
		if len(c.Rows) == 0 || len(c.Cols) == 0 {
			t.Fatalf("cluster %d is empty: %+v", i, c)
		}
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	block := make(chan struct{})
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})
	e.s.runHook = func(ctx context.Context, _ *runSpec) (*ResultView, error) {
		select {
		case <-block:
			return &ResultView{Algorithm: AlgoFLOC}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	id := e.submit(t, smallJobRequest(t))
	resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of unfinished job: status %d, body %s", resp.StatusCode, data)
	}
	if code := decodeError(t, data).Code; code != CodeJobNotDone {
		t.Fatalf("error code %q, want %q", code, CodeJobNotDone)
	}
	close(block)
	if v := e.poll(t, id, 10*time.Second); v.State != StateDone {
		t.Fatalf("job finished %s, want done", v.State)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})
	var once sync.Once
	e.s.runHook = func(ctx context.Context, _ *runSpec) (*ResultView, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	}

	id := e.submit(t, smallJobRequest(t))
	<-started

	resp, data := e.do(t, http.MethodDelete, "/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: status %d, body %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if !v.CancelRequested {
		t.Fatalf("cancel response does not acknowledge the request: %+v", v)
	}

	final := e.poll(t, id, 10*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("job finished %s, want cancelled", final.State)
	}

	// No result was produced → /result reports the cancellation.
	resp, data = e.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, body %s", resp.StatusCode, data)
	}
	if code := decodeError(t, data).Code; code != CodeJobCancelled {
		t.Fatalf("error code %q, want %q", code, CodeJobCancelled)
	}
}

func TestCancelQueuedJobAndIdempotence(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})
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

	blocker := e.submit(t, smallJobRequest(t))
	<-started
	queued := e.submit(t, smallJobRequest(t))

	// Cancel the queued job: terminal immediately, 200.
	resp, data := e.do(t, http.MethodDelete, "/v1/jobs/"+queued, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d, body %s", resp.StatusCode, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateCancelled {
		t.Fatalf("queued job state %s after cancel, want cancelled", v.State)
	}

	// Cancelling again is a settled no-op.
	resp, data = e.do(t, http.MethodDelete, "/v1/jobs/"+queued, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-cancel: status %d, body %s", resp.StatusCode, data)
	}

	close(release)
	if v := e.poll(t, blocker, 10*time.Second); v.State != StateDone {
		t.Fatalf("blocker finished %s, want done", v.State)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
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

	running := e.submit(t, smallJobRequest(t)) // occupies the worker
	<-started
	queued := e.submit(t, smallJobRequest(t)) // fills the queue

	resp, data := e.do(t, http.MethodPost, "/v1/jobs", smallJobRequest(t))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, body %s", resp.StatusCode, data)
	}
	if code := decodeError(t, data).Code; code != CodeQueueFull {
		t.Fatalf("error code %q, want %q", code, CodeQueueFull)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	// The rejected submission must leave no trace in the store.
	resp, data = e.do(t, http.MethodGet, "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var mv MetricsView
	if err := json.Unmarshal(data, &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Jobs.RejectedQueueFull != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", mv.Jobs.RejectedQueueFull)
	}
	if mv.Jobs.Stored != 2 {
		t.Fatalf("stored = %d, want 2 (running + queued)", mv.Jobs.Stored)
	}
	if mv.Queue.Capacity != 1 || mv.Queue.Depth != 1 {
		t.Fatalf("queue %+v, want depth 1 of capacity 1", mv.Queue)
	}

	close(release)
	for _, id := range []string{running, queued} {
		if v := e.poll(t, id, 10*time.Second); v.State != StateDone {
			t.Fatalf("job %s finished %s, want done", id, v.State)
		}
	}
}

func TestTTLEvictionReturns404(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4, TTL: time.Minute, Clock: clock.now})
	e.s.runHook = func(context.Context, *runSpec) (*ResultView, error) {
		return &ResultView{Algorithm: AlgoFLOC}, nil
	}

	id := e.submit(t, smallJobRequest(t))
	if v := e.poll(t, id, 10*time.Second); v.State != StateDone {
		t.Fatalf("job finished %s, want done", v.State)
	}

	// Within the TTL the job and result are readable.
	if resp, _ := e.do(t, http.MethodGet, "/v1/jobs/"+id, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-TTL status %d, want 200", resp.StatusCode)
	}

	clock.advance(2 * time.Minute)

	resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-TTL job status %d, body %s", resp.StatusCode, data)
	}
	if code := decodeError(t, data).Code; code != CodeNotFound {
		t.Fatalf("error code %q, want %q", code, CodeNotFound)
	}
	resp, _ = e.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-TTL result status %d, want 404", resp.StatusCode)
	}
	resp, _ = e.do(t, http.MethodDelete, "/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-TTL cancel status %d, want 404", resp.StatusCode)
	}
}

func TestDeadlineFailsJobWithoutResult(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})
	e.s.runHook = func(ctx context.Context, _ *runSpec) (*ResultView, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}

	req := smallJobRequest(t)
	req.DeadlineMillis = 50
	id := e.submit(t, req)
	v := e.poll(t, id, 10*time.Second)
	if v.State != StateFailed {
		t.Fatalf("deadlined job finished %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", v.Error)
	}
}

func TestGracefulShutdownDrainsRunningJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Workers: 2, QueueCap: 8})
	ts := httptest.NewServer(s.Handler())
	e := &testEnv{s: s, ts: ts}

	// Jobs take a beat to finish, so they are mid-run when the drain
	// begins — the drain must wait for them, not cancel them.
	s.runHook = func(ctx context.Context, _ *runSpec) (*ResultView, error) {
		select {
		case <-time.After(150 * time.Millisecond):
			return &ResultView{Algorithm: AlgoFLOC}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	var ids []string
	for i := 0; i < 2; i++ {
		ids = append(ids, e.submit(t, smallJobRequest(t)))
	}
	// Give the workers a moment to pick both up.
	time.Sleep(30 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	for _, id := range ids {
		v, ok := s.store.view(id)
		if !ok {
			t.Fatalf("job %s evicted during drain", id)
		}
		if v.State != StateDone {
			t.Fatalf("job %s finished %s (error %q), want done (drained, not cancelled)",
				id, v.State, v.Error)
		}
	}

	// Submissions after the drain are rejected.
	resp, data := e.do(t, http.MethodPost, "/v1/jobs", smallJobRequest(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, body %s", resp.StatusCode, data)
	}
	if code := decodeError(t, data).Code; code != CodeDraining {
		t.Fatalf("error code %q, want %q", code, CodeDraining)
	}

	// The pool is down; closing the listener too, the process must be
	// back to its pre-server goroutine count — the zero-leak guarantee.
	ts.Close()
	assertGoroutinesStabilize(t, before)
}

func TestShutdownExpiredBudgetCancelsRunningJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Workers: 1, QueueCap: 8})
	ts := httptest.NewServer(s.Handler())
	e := &testEnv{s: s, ts: ts}

	started := make(chan struct{})
	var once sync.Once
	s.runHook = func(ctx context.Context, _ *runSpec) (*ResultView, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	}

	running := e.submit(t, smallJobRequest(t))
	<-started
	queued := e.submit(t, smallJobRequest(t))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil though the drain budget expired")
	}

	if v, _ := s.store.view(running); v.State != StateCancelled {
		t.Fatalf("running job finished %s, want cancelled", v.State)
	}
	if v, _ := s.store.view(queued); v.State != StateCancelled {
		t.Fatalf("queued job finished %s, want cancelled", v.State)
	}

	ts.Close()
	assertGoroutinesStabilize(t, before)
}

// TestInterruptedFLOCJobFlushesCheckpoint exercises the real engine:
// a big FLOC run is cancelled mid-optimization, the job keeps its
// best-so-far clustering as a partial result, and the interrupted
// attempt's checkpoint lands in the checkpoint directory, readable by
// floc.ReadCheckpointFile. The cancel is issued only after the status
// endpoint shows a completed iteration — a passed boundary guarantees
// a checkpoint regardless of machine speed. CheckpointEvery keeps the
// latest boundary in the store even when the cancel lands in the
// window between engine convergence and the supervisor returning (the
// one timing where no PartialResult — and so no interrupted-attempt
// checkpoint — exists).
func TestInterruptedFLOCJobFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4, CheckpointDir: dir, CheckpointEvery: 1})

	ds, err := synth.Generate(synth.Config{
		Rows: 3000, Cols: 100, NumClusters: 30,
		VolumeMean: 900, VolumeVariance: 0, RowColRatio: 5,
		TargetResidue: 4,
	}, 42)
	if err != nil {
		t.Fatal(err)
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

	req := &SubmitRequest{
		Algorithm: AlgoFLOC,
		Matrix:    MatrixPayload{CSV: csv.String()},
		// Random seeding on this matrix runs for dozens of improving
		// iterations at tens of milliseconds each — slow enough that
		// the cancel below lands mid-run even on a fast machine.
		FLOC: &FLOCParams{K: 12, Delta: 8, Seed: 7, Seeding: "random", MaxIterations: 10_000},
	}
	id := e.submit(t, req)

	// Wait for the first completed iteration, then cancel.
	waitUntil := time.Now().Add(pollBudget(t))
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
			t.Fatalf("job finished %s before it could be interrupted; enlarge the workload", v.State)
		}
		if v.Progress != nil && v.Progress.Iteration >= 1 {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatal("job never reported a completed iteration")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp, data := e.do(t, http.MethodDelete, "/v1/jobs/"+id, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, body %s", resp.StatusCode, data)
	}

	v := e.poll(t, id, 60*time.Second)
	if v.State != StateCancelled {
		t.Fatalf("interrupted FLOC job finished %s (error %q), want cancelled", v.State, v.Error)
	}

	// The best-so-far clustering survives as a partial result.
	resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, body %s", resp.StatusCode, data)
	}
	var res ResultView
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("interrupted result is not marked partial: %+v", res)
	}
	if res.Iterations < 1 {
		t.Fatalf("partial result at iteration %d, want ≥ 1", res.Iterations)
	}

	path := filepath.Join(dir, id+".dckp")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint was not flushed: %v", err)
	}
	ck, err := floc.ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("flushed checkpoint is unreadable: %v", err)
	}
	if ck.Iterations < 1 {
		t.Fatalf("checkpoint at iteration %d, want ≥ 1", ck.Iterations)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})

	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{"empty body", ``, "decoding request"},
		{"unknown field", `{"matriks": {}}`, "decoding request"},
		{"no matrix", `{"algorithm": "floc", "floc": {"k": 2, "delta": 5}}`, "matrix"},
		{"both encodings", `{"matrix": {"rows": [[1]], "csv": "1"}, "floc": {"k": 1, "delta": 5}}`, "exactly one"},
		{"ragged rows", `{"matrix": {"rows": [[1, 2], [3]]}, "floc": {"k": 1, "delta": 5}}`, "rows[1]"},
		{"bad algorithm", `{"algorithm": "kmeans", "matrix": {"rows": [[1, 2]]}}`, "algorithm"},
		{"missing params", `{"algorithm": "floc", "matrix": {"rows": [[1, 2]]}}`, "parameter block"},
		{"bad k", `{"matrix": {"rows": [[1, 2]]}, "floc": {"k": 0, "delta": 5}}`, "floc.k"},
		{"bad delta", `{"matrix": {"rows": [[1, 2]]}, "floc": {"k": 1, "delta": -1}}`, "floc.delta"},
		{"bad order", `{"matrix": {"rows": [[1, 2]]}, "floc": {"k": 1, "delta": 5, "order": "chaotic"}}`, "floc.order"},
		{"negative deadline", `{"matrix": {"rows": [[1, 2]]}, "floc": {"k": 1, "delta": 5}, "deadline_ms": -1}`, "deadline_ms"},
		{"negative workers", `{"matrix": {"rows": [[1, 2]]}, "floc": {"k": 1, "delta": 5, "workers": -2}}`, "floc.workers"},
		// The retired scoring-tier fields are unknown fields now.
		{"removed gain mode", `{"matrix": {"rows": [[1, 2]]}, "floc": {"k": 1, "delta": 5, "gain_mode": "exact"}}`, `unknown field "gain_mode"`},
		{"removed approximate gain", `{"matrix": {"rows": [[1, 2]]}, "floc": {"k": 1, "delta": 5, "approximate_gain": false}}`, `unknown field "approximate_gain"`},
		{"bad tau", `{"algorithm": "clique", "matrix": {"rows": [[1, 2]]}, "clique": {"xi": 5, "tau": 1.5}}`, "clique.tau"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/v1/jobs",
				strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := e.ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, body %s", resp.StatusCode, data)
			}
			det := decodeError(t, data)
			if det.Code != CodeInvalidRequest {
				t.Fatalf("error code %q, want %q", det.Code, CodeInvalidRequest)
			}
			if !strings.Contains(det.Message, tc.want) {
				t.Fatalf("message %q does not mention %q", det.Message, tc.want)
			}
		})
	}
}

// TestSubmitWorkersParam checks the floc.workers plumbing: the value
// reaches the engine config, 0 stays 0 (floc resolves it to
// GOMAXPROCS at validation), and oversized requests are clamped to
// GOMAXPROCS — a transparent cap, since the worker count never
// affects results.
func TestSubmitWorkersParam(t *testing.T) {
	s := New(Options{Workers: 1, QueueCap: 4})
	build := func(workers int) int {
		t.Helper()
		req := &SubmitRequest{
			Matrix: MatrixPayload{CSV: "1,2\n3,4\n"},
			FLOC:   &FLOCParams{K: 1, Delta: 5, Workers: workers},
		}
		spec, _, aerr := s.buildSpec(req)
		if aerr != nil {
			t.Fatalf("buildSpec(workers=%d): %v", workers, aerr)
		}
		return spec.floc.Workers
	}
	if got := build(0); got != 0 {
		t.Errorf("workers=0 resolved to %d before engine validation, want 0", got)
	}
	if got := build(1); got != 1 {
		t.Errorf("workers=1 → %d, want 1", got)
	}
	max := runtime.GOMAXPROCS(0)
	if got := build(1 << 20); got != max {
		t.Errorf("workers=1<<20 → %d, want clamp to GOMAXPROCS (%d)", got, max)
	}
}

// TestBinarySubmitRefusesRemovedGainFields: a DSUB submission whose
// params still carry a retired scoring-tier field gets the same 400,
// naming the field, as the JSON route (TestSubmitValidation).
func TestBinarySubmitRefusesRemovedGainFields(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})
	m := smallMatrix(t)
	for field, params := range map[string]string{
		"gain_mode":        `{"floc": {"k": 1, "delta": 5, "gain_mode": "incremental"}}`,
		"approximate_gain": `{"floc": {"k": 1, "delta": 5, "approximate_gain": true}}`,
	} {
		body := encodeEnvelope(submitMagic, []byte(params), matrix.EncodeBinary(m))
		resp, err := e.ts.Client().Post(e.ts.URL+"/v1/jobs", ContentTypeBinaryMatrix, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", field, resp.StatusCode, data)
		}
		det := decodeError(t, data)
		if want := `unknown field "` + field + `"`; det.Code != CodeInvalidRequest || !strings.Contains(det.Message, want) {
			t.Fatalf("%s: error %q %q, want %q naming %s", field, det.Code, det.Message, CodeInvalidRequest, want)
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})
	for _, path := range []string{"/v1/jobs/jdeadbeef", "/v1/jobs/jdeadbeef/result"} {
		resp, data := e.do(t, http.MethodGet, path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, body %s", path, resp.StatusCode, data)
		}
	}
	resp, _ := e.do(t, http.MethodDelete, "/v1/jobs/jdeadbeef", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndMetricsShape(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})
	e.s.runHook = func(context.Context, *runSpec) (*ResultView, error) {
		return &ResultView{Algorithm: AlgoFLOC}, nil
	}

	resp, data := e.do(t, http.MethodGet, "/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var hz map[string]any
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["draining"] != false {
		t.Fatalf("healthz body %s", data)
	}

	id := e.submit(t, smallJobRequest(t))
	if v := e.poll(t, id, 10*time.Second); v.State != StateDone {
		t.Fatalf("job finished %s, want done", v.State)
	}

	resp, data = e.do(t, http.MethodGet, "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var mv MetricsView
	if err := json.Unmarshal(data, &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Jobs.Submitted != 1 || mv.Jobs.Done != 1 {
		t.Fatalf("metrics %+v, want submitted=1 done=1", mv.Jobs)
	}
	if mv.Latency.Count != 1 {
		t.Fatalf("latency count = %d, want 1", mv.Latency.Count)
	}
	if len(mv.Latency.Counts) != len(mv.Latency.BucketsMillis)+1 {
		t.Fatalf("latency has %d counts for %d buckets (+Inf missing?)",
			len(mv.Latency.Counts), len(mv.Latency.BucketsMillis))
	}
}

func TestBiclusterAndCliqueJobs(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})

	req := smallJobRequest(t)
	req.Algorithm = AlgoBicluster
	req.FLOC = nil
	req.Bicluster = &BiclusterParams{K: 2, Delta: 10, Seed: 3}
	bid := e.submit(t, req)

	creq := smallJobRequest(t)
	creq.Algorithm = AlgoClique
	creq.FLOC = nil
	creq.Clique = &CliqueParams{Xi: 4, Tau: 0.2, MaxDims: 3}
	cid := e.submit(t, creq)

	if v := e.poll(t, bid, 30*time.Second); v.State != StateDone {
		t.Fatalf("bicluster job finished %s (error %q), want done", v.State, v.Error)
	}
	if v := e.poll(t, cid, 30*time.Second); v.State != StateDone {
		t.Fatalf("clique job finished %s (error %q), want done", v.State, v.Error)
	}

	resp, data := e.do(t, http.MethodGet, "/v1/jobs/"+bid+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bicluster result: status %d, body %s", resp.StatusCode, data)
	}
	var bres ResultView
	if err := json.Unmarshal(data, &bres); err != nil {
		t.Fatal(err)
	}
	if bres.Algorithm != AlgoBicluster {
		t.Fatalf("bicluster result algorithm %q", bres.Algorithm)
	}

	resp, data = e.do(t, http.MethodGet, "/v1/jobs/"+cid+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clique result: status %d, body %s", resp.StatusCode, data)
	}
	var cres ResultView
	if err := json.Unmarshal(data, &cres); err != nil {
		t.Fatal(err)
	}
	if cres.Algorithm != AlgoClique {
		t.Fatalf("clique result algorithm %q", cres.Algorithm)
	}
}

func TestPanickingEngineFailsJobNotWorker(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 4})
	var calls int64
	var mu sync.Mutex
	e.s.runHook = func(context.Context, *runSpec) (*ResultView, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			panic("poisoned job")
		}
		return &ResultView{Algorithm: AlgoFLOC}, nil
	}

	bad := e.submit(t, smallJobRequest(t))
	if v := e.poll(t, bad, 10*time.Second); v.State != StateFailed ||
		!strings.Contains(v.Error, "panicked") {
		t.Fatalf("poisoned job finished %+v, want failed with a panic message", v)
	}

	// The worker survived and still serves jobs.
	good := e.submit(t, smallJobRequest(t))
	if v := e.poll(t, good, 10*time.Second); v.State != StateDone {
		t.Fatalf("follow-up job finished %s, want done", v.State)
	}
}
