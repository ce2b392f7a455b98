package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stream"
)

// lineageRef is the in-process reference for a served lineage: one live
// matrix patched in place through the stream log as each PATCH lands
// (Append, then ApplyTo from the previous head), and FLOC run on it
// directly. A parked lineage rebuilds its head from the base section
// and the whole log instead; the two must agree bit for bit.
type lineageRef struct {
	m   *matrix.Matrix
	log *stream.Log
	cfg floc.Config
}

func newLineageRef(t *testing.T, s *Server, req *SubmitRequest) *lineageRef {
	t.Helper()
	spec, m, aerr := s.buildSpec(req)
	if aerr != nil {
		t.Fatal(aerr)
	}
	return &lineageRef{m: m, log: stream.NewLog(m.Rows(), m.Cols()), cfg: spec.floc}
}

func (r *lineageRef) patch(t *testing.T, req *MatrixPatchRequest) {
	t.Helper()
	v, err := r.log.Append(req.mutation())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.log.ApplyTo(r.m, v-1); err != nil {
		t.Fatal(err)
	}
}

// cold runs the reference root: one attempt under seed.
func (r *lineageRef) cold(t *testing.T, seed int64) *floc.Checkpoint {
	t.Helper()
	cfg := r.cfg
	cfg.Seed = seed
	res, err := floc.RunWithOptions(context.Background(), r.m, cfg, floc.RunOptions{KeepFinalCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.FinalCheckpoint
}

// warm runs the reference recluster child: a warm start from ck on the
// reference's current matrix, rendered as the service renders it.
func (r *lineageRef) warm(t *testing.T, ck *floc.Checkpoint, parentRows int) (*ResultView, *floc.Checkpoint) {
	t.Helper()
	cfg := r.cfg
	cfg.Seed = ck.Seed
	res, err := floc.RunWithOptions(context.Background(), r.m, cfg, floc.RunOptions{
		WarmStart:           &floc.WarmStart{Checkpoint: ck, ParentRows: parentRows},
		KeepFinalCheckpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	view := flocView(res, cfg.Seed)
	view.WarmStart = true
	view.DurationMillis = 0
	return view, res.FinalCheckpoint
}

// settled waits for a job to finish done and returns its stored result
// (run time zeroed) and final checkpoint.
func (e *testEnv) settled(t *testing.T, id string) (*ResultView, *floc.Checkpoint) {
	t.Helper()
	if v := e.poll(t, id, 60*time.Second); v.State != StateDone {
		t.Fatalf("job %s finished %s (%s)", id, v.State, v.Error)
	}
	st := e.s.store
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	res := *j.result
	res.DurationMillis = 0
	return &res, j.finalCheckpoint
}

// assertParked checks that no job of the lineage holds a dense matrix.
func (e *testEnv) assertParked(t *testing.T, lineage string) {
	t.Helper()
	st := e.s.store
	st.mu.Lock()
	defer st.mu.Unlock()
	//deltavet:ignore maporder reason=order-independent check; any held matrix fails the test
	for id, j := range st.jobs {
		if j.lineage == lineage && j.m != nil {
			t.Errorf("job %s of idle lineage %s holds a dense matrix", id, lineage)
		}
	}
}

// parkedPatches are the suite's PATCH batches on a 200×18 lineage:
// appends, updates (of an appended row too) and retractions.
func parkedPatches() []*MatrixPatchRequest {
	up := func(row, col int, v float64) CellPatch { return CellPatch{Row: row, Col: col, Value: &v} }
	second := &MatrixPatchRequest{
		Updates: []CellPatch{up(5, 0, -2.5), up(5, 1, 7), up(200, 4, 0.125), up(17, 9, 3)},
		Retract: []CellRef{{Row: 200, Col: 2}, {Row: 31, Col: 6}},
	}
	row := make([]*float64, 18)
	for j := range row {
		if j%5 != 3 {
			v := 1 - 0.5*float64(j)
			row[j] = &v
		}
	}
	third := &MatrixPatchRequest{AppendRows: [][]*float64{row}, Updates: []CellPatch{up(0, 0, 11)}}
	return []*MatrixPatchRequest{smallDelta(), second, third}
}

// TestParkedLineageEquivalence: a lineage parked as its base section
// plus the mutation log serves the same bits as one live matrix patched
// in place. For a binary root, a JSON root, and a coordinator dispatch
// (binary and JSON) carrying a recorded patch, the root is checked
// against an in-process cold run; then two PATCHes land on the parked
// lineage, a recluster runs, a third PATCH lands and a chained
// recluster runs off the child. Each child's result and final
// checkpoint must equal an in-process warm start on the matrix patched
// through stream directly, and between jobs no job of the lineage may
// hold a dense matrix. The "seeded root" leg's root converges in
// seeding, so its handle is the seed checkpoint.
func TestParkedLineageEquivalence(t *testing.T) {
	recorded := &MatrixPatchRequest{
		AppendRows: [][]*float64{smallDelta().AppendRows[0]},
		Retract:    []CellRef{{Row: 3, Col: 3}},
	}
	for _, kind := range []string{"binary root", "json root", "binary dispatch", "json dispatch", "seeded root"} {
		t.Run(kind, func(t *testing.T) {
			e := newTestEnv(t, Options{Workers: 2, QueueCap: 8})
			req := streamJobRequest(t, 1)
			ref := newLineageRef(t, e.s, req)
			var root string
			switch kind {
			case "binary root":
				body, err := EncodeBinarySubmit(&SubmitRequest{Algorithm: req.Algorithm, FLOC: req.FLOC}, ref.m)
				if err != nil {
					t.Fatal(err)
				}
				root = e.submitBinary(t, body)
			case "json root":
				root = e.submit(t, req)
			case "seeded root":
				req.FLOC.Seeding = "anchored"
				ref = newLineageRef(t, e.s, req)
				root = e.submit(t, req)
			default:
				root = "jdispatched000001"
				e.dispatch(t, kind == "binary dispatch", &DispatchRequest{
					ID: root, Submit: *req, Patches: []MatrixPatchRequest{*recorded},
				}, ref.m)
				ref.patch(t, recorded)
			}

			rootRes, rootCk := e.settled(t, root)
			if seeded := len(rootCk.Clusters) == 0; seeded != (kind == "seeded root") {
				t.Fatalf("the root took %d iterations; its final checkpoint holds %d cluster states",
					rootRes.Iterations, len(rootCk.Clusters))
			}
			if want := ref.cold(t, rootRes.BestSeed); !reflect.DeepEqual(rootCk, want) {
				t.Fatal("the root's final checkpoint differs from an in-process run on the same matrix")
			}
			e.assertParked(t, root)

			patches := parkedPatches()
			parentRows := ref.m.Rows()
			for _, p := range patches[:2] {
				e.patch(t, root, p)
				ref.patch(t, p)
			}
			e.assertParked(t, root)
			child := e.recluster(t, root).Job.ID
			got, gotCk := e.settled(t, child)
			want, wantCk := ref.warm(t, rootCk, parentRows)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCk, wantCk) {
				t.Fatalf("recluster child differs from the in-process warm start:\n got %+v\nwant %+v", got, want)
			}
			e.assertParked(t, root)

			childRows := ref.m.Rows()
			e.patch(t, child, patches[2])
			ref.patch(t, patches[2])
			grand := e.recluster(t, child).Job.ID
			got, gotCk = e.settled(t, grand)
			want, wantCk = ref.warm(t, wantCk, childRows)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCk, wantCk) {
				t.Fatalf("chained recluster differs from the in-process warm start:\n got %+v\nwant %+v", got, want)
			}
			e.assertParked(t, root)
		})
	}

	// PATCHes, reclusters and polls race on one lineage. Every request
	// must get one of the usual answers (200/202, or 409 lineage_busy), the
	// committed versions must run 1…k, and every child must equal the
	// in-process warm start on the matrix at the version it reports: a
	// child never runs on a head torn by a PATCH that raced it.
	t.Run("concurrent", func(t *testing.T) {
		e := newTestEnv(t, Options{Workers: 2, QueueCap: 16})
		req := streamJobRequest(t, 10)
		base := newLineageRef(t, e.s, req)
		root := e.submit(t, req)
		_, rootCk := e.settled(t, root)
		parentRows := base.m.Rows()

		patchesByVersion := map[int]*MatrixPatchRequest{}
		var children []JobView
		for round := 0; round < 3; round++ {
			var wg sync.WaitGroup
			var mu sync.Mutex
			start := make(chan struct{})
			stop := make(chan struct{})
			for p := 0; p < 4; p++ {
				up := float64(10*round + p)
				patch := &MatrixPatchRequest{Updates: []CellPatch{{Row: 4 * p, Col: p + round, Value: &up}}}
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					status, data := e.send(t, http.MethodPatch, "/v1/jobs/"+root+"/matrix", patch)
					var pr MatrixPatchResponse
					switch {
					case status == http.StatusOK && json.Unmarshal(data, &pr) == nil:
						mu.Lock()
						patchesByVersion[pr.MatrixVersion] = patch
						mu.Unlock()
					case status != http.StatusConflict || !bytes.Contains(data, []byte(CodeLineageBusy)):
						t.Errorf("racing PATCH: status %d, body %s", status, data)
					}
				}()
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					status, data := e.send(t, http.MethodPost, "/v1/jobs/"+root+":recluster", nil)
					var rr ReclusterResponse
					switch {
					case status == http.StatusAccepted && json.Unmarshal(data, &rr) == nil:
						mu.Lock()
						children = append(children, rr.Job)
						mu.Unlock()
					case status != http.StatusConflict || !bytes.Contains(data, []byte(CodeLineageBusy)):
						t.Errorf("racing recluster: status %d, body %s", status, data)
					}
				}()
			}
			var polls sync.WaitGroup
			polls.Add(1)
			go func() {
				defer polls.Done()
				<-start
				for {
					select {
					case <-stop:
						return
					default:
					}
					if status, data := e.send(t, http.MethodGet, "/v1/jobs/"+root, nil); status != http.StatusOK {
						t.Errorf("racing poll: status %d, body %s", status, data)
						return
					}
				}
			}()
			close(start)
			wg.Wait()
			mu.Lock()
			pending := append([]JobView(nil), children...)
			mu.Unlock()
			for _, c := range pending {
				e.poll(t, c.ID, 60*time.Second)
			}
			close(stop)
			polls.Wait()
		}

		if len(children) == 0 {
			t.Fatal("no recluster was accepted")
		}
		for v := 1; v <= len(patchesByVersion); v++ {
			if patchesByVersion[v] == nil {
				t.Fatalf("committed versions have a gap at %d: %d patches committed", v, len(patchesByVersion))
			}
		}
		for _, c := range children {
			ref := newLineageRef(t, e.s, req)
			for v := 1; v <= c.MatrixVersion; v++ {
				ref.patch(t, patchesByVersion[v])
			}
			got, gotCk := e.settled(t, c.ID)
			want, wantCk := ref.warm(t, rootCk, parentRows)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotCk, wantCk) {
				t.Fatalf("child %s at version %d differs from the in-process warm start", c.ID, c.MatrixVersion)
			}
		}
		e.assertParked(t, root)
		t.Logf("%d patches committed, %d children", len(patchesByVersion), len(children))
	})
}

// send is do for goroutines other than the test's: it reports failures
// through t.Errorf instead of stopping the test.
func (e *testEnv) send(t *testing.T, method, path string, body any) (int, []byte) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, data
}

// dispatch posts a coordinator dispatch, as a DSUB envelope carrying m
// when binary (req.Submit's inline matrix is then dropped), and
// expects it accepted.
func (e *testEnv) dispatch(t *testing.T, binary bool, req *DispatchRequest, m *matrix.Matrix) {
	t.Helper()
	var resp *http.Response
	var data []byte
	if binary {
		bin := *req
		bin.Submit.Matrix = MatrixPayload{}
		body, err := EncodeBinaryDispatch(&bin, matrix.EncodeBinary(m))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.ts.Client().Post(e.ts.URL+"/v1/internal/jobs", ContentTypeBinaryMatrix, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err = io.ReadAll(r.Body)
		_ = r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		resp = r
	} else {
		resp, data = e.do(t, http.MethodPost, "/v1/internal/jobs", req)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dispatch: status %d, body %s", resp.StatusCode, data)
	}
}

// TestMatrixGauges: /metrics reports one dense matrix while a lineage's
// job runs (a recluster child's built on its worker), none once the
// lineage is idle, PATCHed or not, and the lineage's base section size
// throughout.
func TestMatrixGauges(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1, QueueCap: 8})
	req := streamJobRequest(t, 6)
	m, aerr := parseMatrix(&req.Matrix, 0)
	if aerr != nil {
		t.Fatal(aerr)
	}
	section := len(matrix.EncodeBinary(m))
	expect := func(step string, dense, parked int) {
		t.Helper()
		resp, data := e.do(t, http.MethodGet, "/metrics", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics: status %d", resp.StatusCode)
		}
		var mv MetricsView
		if err := json.Unmarshal(data, &mv); err != nil {
			t.Fatal(err)
		}
		if mv.Jobs.DenseMatrices != dense || mv.Jobs.ParkedMatrixBytes != parked {
			t.Errorf("%s: dense_matrices %d, parked_matrix_bytes %d; want %d and %d",
				step, mv.Jobs.DenseMatrices, mv.Jobs.ParkedMatrixBytes, dense, parked)
		}
	}

	root := e.submit(t, req)
	if v := e.poll(t, root, 60*time.Second); v.State != StateDone {
		t.Fatalf("root finished %s (%s)", v.State, v.Error)
	}
	expect("idle root", 0, section)
	e.patch(t, root, smallDelta())
	expect("patched idle lineage", 0, section)

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
	child := e.recluster(t, root).Job.ID
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("recluster child never started")
	}
	expect("running child", 1, section)
	close(release)
	e.poll(t, child, 10*time.Second)
	expect("idle again", 0, section)
}
