package coord

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"deltacluster/internal/service"
)

// TestChaosKillBackendMidRunBitIdentical is the headline failover
// drill, end to end with real processes: two deltaserve backends run
// as separate OS processes, the (race-instrumented, in-process)
// coordinator routes a slow FLOC job to one of them, and that backend
// is SIGKILLed mid-run — no drain, no checkpoint flush, no goodbye.
// The coordinator must detect the death, re-dispatch the job to the
// survivor resuming from the last replicated checkpoint, and the
// final clustering must be bit-identical to an uninterrupted
// single-node run of the same submission.
func TestChaosKillBackendMidRunBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns backend processes; skipped with -short")
	}
	bin := buildDeltaserve(t)

	// Distinct ID-RNG seeds per process: the coordinator (seed 1) mints
	// the public IDs, and the backends must never mint a colliding ID
	// for directly-submitted jobs like the reference run.
	addrA, addrB := freeAddr(t), freeAddr(t)
	procA := startBackendProc(t, bin, addrA, 101)
	procB := startBackendProc(t, bin, addrB, 102)
	urlA, urlB := "http://"+addrA, "http://"+addrB
	waitHealthy(t, urlA)
	waitHealthy(t, urlB)

	// Reference: the same submission, uninterrupted, on backend A
	// directly. Fetched before any chaos so the fingerprint survives.
	req := longSubmit(t)
	st, body := do(t, http.MethodPost, urlA+"/v1/jobs", req)
	if st != http.StatusAccepted {
		t.Fatalf("reference submit: status %d, body %s", st, body)
	}
	var direct service.SubmitResponse
	if err := json.Unmarshal(body, &direct); err != nil {
		t.Fatal(err)
	}
	if v := pollDone(t, urlA, direct.Job.ID, 120*time.Second); v.State != service.StateDone {
		t.Fatalf("reference job finished %s", v.State)
	}
	want := fetchResult(t, urlA, direct.Job.ID)

	co, err := New(fastOpts([]string{urlA, urlB}))
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(co.Handler())
	t.Cleanup(func() {
		cts.Close()
		_ = co.Shutdown(testCtx(t, 10*time.Second))
	})

	id, _, _ := submitVia(t, cts.URL, req)

	// Locate the owner process and its peer.
	ownerURL, peerURL, ownerProc := urlA, urlB, procA
	if st, _ := do(t, http.MethodGet, urlA+"/v1/jobs/"+id, nil); st != http.StatusOK {
		ownerURL, peerURL, ownerProc = urlB, urlA, procB
		if st, _ := do(t, http.MethodGet, urlB+"/v1/jobs/"+id, nil); st != http.StatusOK {
			t.Fatalf("no backend owns job %s", id)
		}
	}

	// Wait until the peer holds a checkpoint replica — the coordinator
	// has pulled a boundary from the owner and pushed it across. Only
	// then is a kill guaranteed recoverable with zero recompute.
	replicaIters := waitForReplica(t, peerURL, id, 60*time.Second)

	// The kill must land mid-run: a job that finished first would leave
	// its result on the dead owner, which failover does not recover.
	// The fixture runs many times longer than the wait above, and the
	// owner must confirm it is still running.
	st, body = do(t, http.MethodGet, ownerURL+"/v1/jobs/"+id, nil)
	var ov service.JobView
	if err := json.Unmarshal(body, &ov); st != http.StatusOK || err != nil {
		t.Fatalf("owner view before the kill: status %d, body %s", st, body)
	}
	if ov.State != service.StateRunning {
		t.Fatalf("owner reports job %s %s before the kill, want running: the fixture is too short for this machine", id, ov.State)
	}

	// SIGKILL — the owner gets no chance to flush, answer, or drain.
	if err := ownerProc.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	t.Logf("killed owner %s with a replica at iteration %d on %s", ownerURL, replicaIters, peerURL)

	v := pollDone(t, cts.URL, id, 120*time.Second)
	if v.State != service.StateDone {
		t.Fatalf("migrated job finished %s (error %q), want done", v.State, v.Error)
	}
	got := fetchResult(t, cts.URL, id)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-kill result differs from uninterrupted run:\n got %+v\nwant %+v", got, want)
	}

	// The coordinator's own account: at least one committed migration,
	// the dead backend marked down.
	st, body = do(t, http.MethodGet, cts.URL+"/metrics", nil)
	if st != http.StatusOK {
		t.Fatalf("metrics: status %d", st)
	}
	var mv MetricsView
	if err := json.Unmarshal(body, &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Jobs.Migrations < 1 {
		t.Fatalf("metrics report %d migrations, want ≥ 1: %s", mv.Jobs.Migrations, body)
	}
	if state := mv.Backends.States[ownerURL]; state != "down" {
		t.Fatalf("killed backend probes %q, want down", state)
	}
}

// longSubmit is slowSubmit's matrix clustered with K = 200 on one
// decide worker: about 50 improving iterations over several seconds on
// a 2-vCPU VM, the first boundary after about a tenth of the run, so a
// kill after the first replica lands mid-run even when the coordinator
// is slowed by the race detector and a loaded machine.
func longSubmit(t *testing.T) *service.SubmitRequest {
	t.Helper()
	req := slowSubmit(t)
	req.FLOC = &service.FLOCParams{K: 200, Delta: 8, Seed: 7, Seeding: "random", MaxIterations: 10_000, Workers: 1}
	return req
}

// buildDeltaserve compiles cmd/deltaserve into a temp dir once per
// test run.
func buildDeltaserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "deltaserve")
	cmd := exec.Command("go", "build", "-o", bin, "deltacluster/cmd/deltaserve")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building deltaserve: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port and releases it for the backend
// process to claim. The tiny claim race is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

// startBackendProc launches one deltaserve backend process, logging to
// a file that is dumped on test failure.
func startBackendProc(t *testing.T, bin, addr string, seed int) *exec.Cmd {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "backend.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-workers", "1",
		"-queue", "8",
		"-checkpoint-every", "1",
		"-drain-timeout", "10s",
		"-seed", fmt.Sprint(seed),
	)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		_ = logFile.Close()
		if t.Failed() {
			if data, err := os.ReadFile(logPath); err == nil && len(data) > 0 {
				t.Logf("backend %s log:\n%s", addr, data)
			}
		}
	})
	return cmd
}

func waitHealthy(t *testing.T, baseURL string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend %s never became healthy: %v", baseURL, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitForReplica polls the peer's replica table until it holds a
// checkpoint for the job, returning the boundary iteration.
func waitForReplica(t *testing.T, peerURL, id string, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(peerURL + "/v1/internal/replicas/" + id + "/checkpoint")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				iters := 0
				_, _ = fmt.Sscanf(resp.Header.Get("X-Deltaserve-Checkpoint-Iterations"), "%d", &iters)
				return iters
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint replica for %s ever reached %s", id, peerURL)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
