package service

import (
	"testing"
	"time"

	"deltacluster/internal/floc"
)

func testSpec() *runSpec { return &runSpec{algorithm: AlgoFLOC} }

// TestJobIDsAreDeterministic: a store's ID sequence is a pure function
// of its seed — replayable in tests, log-correlatable across restarts.
func TestJobIDsAreDeterministic(t *testing.T) {
	now := func() time.Time { return time.Unix(0, 0) }
	a := newJobStore(7, time.Minute, now)
	b := newJobStore(7, time.Minute, now)
	c := newJobStore(8, time.Minute, now)

	var fromA, fromB, fromC []string
	for i := 0; i < 16; i++ {
		fromA = append(fromA, a.create(testSpec(), nil, nil))
		fromB = append(fromB, b.create(testSpec(), nil, nil))
		fromC = append(fromC, c.create(testSpec(), nil, nil))
	}
	for i := range fromA {
		if fromA[i] != fromB[i] {
			t.Fatalf("ID %d diverged between equal seeds: %s vs %s", i, fromA[i], fromB[i])
		}
	}
	diverged := false
	for i := range fromA {
		if fromA[i] != fromC[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds issued identical ID sequences")
	}
	seen := make(map[string]bool)
	for _, id := range fromA {
		if seen[id] {
			t.Fatalf("duplicate ID %s in one store", id)
		}
		seen[id] = true
	}
}

func TestStoreLifecycleTransitions(t *testing.T) {
	st := newJobStore(1, time.Minute, func() time.Time { return time.Unix(0, 0) })
	id := st.create(testSpec(), nil, nil)

	if v, ok := st.view(id); !ok || v.State != StateQueued {
		t.Fatalf("fresh job view %+v ok=%v, want queued", v, ok)
	}
	if !st.start(id, func() {}) {
		t.Fatal("start of a queued job failed")
	}
	if st.start(id, func() {}) {
		t.Fatal("second start of the same job succeeded")
	}
	st.finish(id, StateDone, &ResultView{Algorithm: AlgoFLOC}, "")
	if v, _ := st.view(id); v.State != StateDone {
		t.Fatalf("state %s after finish, want done", v.State)
	}
	// Finishing again (e.g. a late drain pass) is a no-op.
	st.finish(id, StateFailed, nil, "late")
	if v, _ := st.view(id); v.State != StateDone || v.Error != "" {
		t.Fatalf("terminal job was overwritten: %+v", v)
	}
}

func TestStoreCancelQueuedVsRunning(t *testing.T) {
	st := newJobStore(1, time.Minute, func() time.Time { return time.Unix(0, 0) })

	queued := st.create(testSpec(), nil, nil)
	v, fromQueue, ok := st.requestCancel(queued)
	if !ok || !fromQueue || v.State != StateCancelled {
		t.Fatalf("cancel queued: view %+v fromQueue=%v ok=%v", v, fromQueue, ok)
	}
	if st.start(queued, func() {}) {
		t.Fatal("a cancelled queued job was started")
	}

	running := st.create(testSpec(), nil, nil)
	fired := false
	if !st.start(running, func() { fired = true }) {
		t.Fatal("start failed")
	}
	v, fromQueue, ok = st.requestCancel(running)
	if !ok || fromQueue {
		t.Fatalf("cancel running: fromQueue=%v ok=%v", fromQueue, ok)
	}
	if v.State != StateRunning || !v.CancelRequested {
		t.Fatalf("cancel running: view %+v, want running with cancel_requested", v)
	}
	if !fired {
		t.Fatal("cancelling a running job did not fire its cancel function")
	}

	if _, _, ok := st.requestCancel("jmissing"); ok {
		t.Fatal("cancelling an unknown job reported ok")
	}
}

func TestStoreTTLEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	st := newJobStore(1, time.Minute, clock.now)

	id := st.create(testSpec(), nil, nil)
	st.start(id, func() {})
	st.finish(id, StateDone, &ResultView{Algorithm: AlgoFLOC}, "")

	// A running job never expires, no matter how old.
	live := st.create(testSpec(), nil, nil)
	st.start(live, func() {})

	clock.advance(2 * time.Minute)
	st.sweep()

	if _, ok := st.view(id); ok {
		t.Fatal("terminal job survived the TTL sweep")
	}
	if _, ok := st.view(live); !ok {
		t.Fatal("running job was evicted by the TTL sweep")
	}

	// Lazy eviction: even without a sweep, reads see expired jobs as
	// gone.
	done2 := st.create(testSpec(), nil, nil)
	st.start(done2, func() {})
	st.finish(done2, StateDone, nil, "")
	clock.advance(2 * time.Minute)
	if _, ok := st.view(done2); ok {
		t.Fatal("view returned an expired job")
	}
	if _, _, ok := st.result(done2); ok {
		t.Fatal("result returned an expired job")
	}
}

func TestStoreCheckpointHandoff(t *testing.T) {
	st := newJobStore(1, time.Minute, func() time.Time { return time.Unix(0, 0) })
	id := st.create(testSpec(), nil, nil)

	if ck := st.latestCheckpoint(id); ck != nil {
		t.Fatal("fresh job has a checkpoint")
	}
	// Checkpoints are monotonic by boundary iteration: a stale write
	// (a slow attempt racing a fresher boundary) never regresses the
	// replication stream, and reads do not drain the stored state.
	st.setCheckpoint(id, &floc.Checkpoint{Iterations: 4})
	st.setCheckpoint(id, &floc.Checkpoint{Iterations: 2})
	if ck := st.latestCheckpoint(id); ck == nil || ck.Iterations != 4 {
		t.Fatalf("stale checkpoint overwrote a fresher one: %+v", ck)
	}
	st.setCheckpoint(id, &floc.Checkpoint{Iterations: 5})
	if ck := st.latestCheckpoint(id); ck == nil || ck.Iterations != 5 {
		t.Fatalf("fresher checkpoint not stored: %+v", ck)
	}
	if ck := st.latestCheckpoint(id); ck == nil {
		t.Fatal("latestCheckpoint drained the stored checkpoint")
	}
	st.start(id, func() {})
	st.setProgress(id, ProgressView{Attempt: 1, Iteration: 3, AvgResidue: 2.5})
	v, _ := st.view(id)
	if v.Progress == nil || v.Progress.Iteration != 3 {
		t.Fatalf("progress not visible in view: %+v", v)
	}
}

func TestRetryAfterSecondsRoundsUp(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{100 * time.Millisecond, 1},
		{time.Second, 1},
		{1100 * time.Millisecond, 2},
		{5 * time.Second, 5},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestCancelAllRunning(t *testing.T) {
	st := newJobStore(1, time.Minute, func() time.Time { return time.Unix(0, 0) })

	var fired int
	running := st.create(testSpec(), nil, nil)
	st.start(running, func() { fired++ })
	queued := st.create(testSpec(), nil, nil)
	done := st.create(testSpec(), nil, nil)
	st.start(done, func() { fired++ })
	st.finish(done, StateDone, nil, "")

	st.cancelAllRunning()
	if fired != 1 {
		t.Fatalf("%d cancel functions fired, want 1 (only the running job)", fired)
	}
	if !st.cancelRequestedOf(running) {
		t.Fatal("running job not marked cancel-requested")
	}
	if st.cancelRequestedOf(queued) {
		t.Fatal("queued job was marked cancel-requested by cancelAllRunning")
	}
}
