package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"deltacluster/internal/coord"
	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/service"
	"deltacluster/internal/stats"
	"deltacluster/internal/synth"
)

// The serve-ratings deployment and load. The rate is an open loop
// frozen at about half the capacity measured when the benchmark was
// defined (see NOTES.md); with a fixed rate and a fixed TTL the set of
// retained jobs, and so memory, does not depend on the engine's speed.
const (
	serveRate         = 1.25 // sessions per second
	serveBackends     = 2
	serveSetupReps    = 3
	serveDatasets     = 3 // ratings matrices per run, taken in turn by the sessions
	serveRefWorkers   = 2
	serveTTL          = 3 * time.Second
	servePoll         = 20 * time.Millisecond
	serveClientConns  = 2
	servePatchRows    = 20
	serveDrainTimeout = 90 * time.Second
	serveDelta        = 1.0 // δ of every served job
)

// serveParams is the FLOC block of every root submission: the paper's
// MovieLens setting (k=10, δ=1, α=0.6) with anchored seeding. One
// decide worker per job, like the pool's one worker per backend,
// keeps the two backends from competing for the two cores a job
// would otherwise take.
func serveParams(jobSeed int64) service.FLOCParams {
	return service.FLOCParams{
		K: 10, Delta: serveDelta, Seed: jobSeed, MaxIterations: 40,
		Seeding: "anchored", Occupancy: 0.6, Workers: 1,
	}
}

// serveConfig is the floc.Config the service resolves serveParams to,
// for the in-process reference runs of the output check.
func serveConfig(jobSeed int64) floc.Config {
	p := serveParams(jobSeed)
	cfg := floc.DefaultConfig(p.K, p.Delta)
	cfg.Seed = p.Seed
	cfg.MaxIterations = p.MaxIterations
	cfg.SeedMode = floc.SeedAnchored
	cfg.Constraints.Occupancy = p.Occupancy
	cfg.Workers = p.Workers
	return cfg
}

// serveCluster is a coordinator and its backends, all in this process
// and reached over loopback HTTP.
type serveCluster struct {
	backends []*service.Server
	coord    *coord.Coordinator
	servers  []*http.Server
	wg       sync.WaitGroup
	urls     []string // backend base URLs
	coordURL string
}

// serve starts an HTTP server for h on a fresh loopback port.
func (c *serveCluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.servers = append(c.servers, srv)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

func startCluster(seed int64) (*serveCluster, error) {
	c := &serveCluster{}
	for i := 0; i < serveBackends; i++ {
		b := service.New(service.Options{
			Workers:         1,
			CheckpointEvery: 1,
			TTL:             serveTTL,
			Seed:            seed + int64(i),
		})
		c.backends = append(c.backends, b)
		url, err := c.serve(b.Handler())
		if err != nil {
			return nil, errors.Join(err, c.stop())
		}
		c.urls = append(c.urls, url)
	}
	co, err := coord.New(coord.Options{Backends: c.urls, Replication: 1, TTL: serveTTL, Seed: seed})
	if err != nil {
		return nil, errors.Join(err, c.stop())
	}
	c.coord = co
	if c.coordURL, err = c.serve(co.Handler()); err != nil {
		return nil, errors.Join(err, c.stop())
	}
	return c, nil
}

// waitReady polls the coordinator's readiness probe.
func (c *serveCluster) waitReady(ctx context.Context, cl *http.Client) error {
	for {
		status, _, err := call(ctx, cl, http.MethodGet, c.coordURL+"/readyz", "", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("coordinator not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts down the coordinator loops, the HTTP servers and the
// backends' worker pools, and waits for every goroutine it started.
func (c *serveCluster) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if c.coord != nil {
		errs = append(errs, c.coord.Shutdown(ctx))
	}
	// Close, not Shutdown: every session is over, and Shutdown would
	// wait out connections the coordinator's client opened but never
	// used.
	for _, s := range c.servers {
		errs = append(errs, s.Close())
	}
	c.wg.Wait()
	for _, b := range c.backends {
		errs = append(errs, b.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// call performs one request and reads the whole response.
func call(ctx context.Context, cl *http.Client, method, url, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON performs a GET expecting 200 and decodes the body into v.
func getJSON(ctx context.Context, cl *http.Client, url string, v any) error {
	status, data, err := call(ctx, cl, http.MethodGet, url, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// session is one user's visit: submit the ratings matrix, wait for
// the clustering, append rows, recluster, wait for the child.
type session struct {
	idx     int
	m       *matrix.Matrix
	jobSeed int64
	patch   [][]float64
	due     time.Time
	lag     float64
	rootEnd time.Time // the root's result arrived: the end of job_s
	end     time.Time

	submitS, resultS                float64
	polls                           int
	root, child                     service.JobView
	rootResult, childResult         *service.ResultView
	patchS, reclusterSubmitS, warmS float64
	reclusterS                      float64
	attempted                       int
	refused                         bool
	err                             error // the first failure, if any
}

// serveLoad is the state shared by every session of one run.
type serveLoad struct {
	tr   *tracer
	cl   *http.Client
	base string
	ctx  context.Context
}

// pollDone polls a job until it is terminal, returning its last view.
func (l *serveLoad) pollDone(parent int, job, id string, polls *int) (service.JobView, error) {
	for {
		var v service.JobView
		sp := l.tr.begin("service.poll", parent, job)
		err := getJSON(l.ctx, l.cl, l.base+"/v1/jobs/"+id, &v)
		l.tr.finish(sp)
		*polls++
		if err != nil {
			return v, err
		}
		switch v.State {
		case service.StateDone:
			return v, nil
		case service.StateFailed, service.StateCancelled:
			return v, fmt.Errorf("job %s ended %s: %s", id, v.State, v.Error)
		}
		select {
		case <-l.ctx.Done():
			return v, l.ctx.Err()
		case <-time.After(servePoll):
		}
	}
}

// addServerSpans records a job's queue wait and run from the view's
// timestamps, which the backend took on this process's clock.
func (l *serveLoad) addServerSpans(parent int, job, runName string, v service.JobView) {
	if v.Started == nil || v.Finished == nil {
		return
	}
	l.tr.add("service.queue", parent, job, v.Created, *v.Started)
	l.tr.add(runName, parent, job, *v.Started, *v.Finished)
}

func (l *serveLoad) result(parent int, job, id string) (*service.ResultView, float64, error) {
	var rv service.ResultView
	sp := l.tr.begin("service.result", parent, job)
	t0 := time.Now()
	err := getJSON(l.ctx, l.cl, l.base+"/v1/jobs/"+id+"/result", &rv)
	d := time.Since(t0).Seconds()
	l.tr.finish(sp)
	if err != nil {
		return nil, d, err
	}
	return &rv, d, nil
}

// run executes the session; failures are recorded on s, never
// returned, so one failed session cannot stop the load.
func (l *serveLoad) run(s *session) {
	job := fmt.Sprintf("s%d", s.idx)
	top := l.tr.add("loadgen.session", 0, job, s.due, time.Time{})
	defer func() {
		s.end = time.Now()
		l.tr.finish(top)
	}()

	s.attempted++
	p := serveParams(s.jobSeed)
	sp := l.tr.begin("service.encode_submit", top, job)
	body, err := service.EncodeBinarySubmit(&service.SubmitRequest{Algorithm: service.AlgoFLOC, FLOC: &p}, s.m)
	l.tr.finish(sp)
	if err != nil {
		s.err = err
		return
	}
	sp = l.tr.begin("coord.submit", top, job)
	t0 := time.Now()
	status, data, err := call(l.ctx, l.cl, http.MethodPost, l.base+"/v1/jobs", service.ContentTypeBinaryMatrix, body)
	s.submitS = time.Since(t0).Seconds()
	l.tr.finish(sp)
	body = nil // let the 12.7 MB upload go while the job runs
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: %d %s", status, bytes.TrimSpace(data))
	}
	var sub coord.SubmitResponse
	if err == nil {
		err = json.Unmarshal(data, &sub)
	}
	if err != nil {
		s.err = err
		return
	}
	id := sub.Job.ID

	if s.root, err = l.pollDone(top, job, id, &s.polls); err != nil {
		s.err = err
		return
	}
	l.addServerSpans(top, job, "service.run", s.root)
	if s.rootResult, s.resultS, err = l.result(top, job, id); err != nil {
		s.err = err
		return
	}
	s.rootEnd = time.Now()

	if err := l.patch(top, job, id, s); err != nil {
		s.err = err
		return
	}

	s.attempted++
	sp = l.tr.begin("service.recluster_submit", top, job)
	t0 = time.Now()
	status, data, err = call(l.ctx, l.cl, http.MethodPost, l.base+"/v1/jobs/"+id+":recluster", "application/json", nil)
	s.reclusterSubmitS = time.Since(t0).Seconds()
	l.tr.finish(sp)
	if err != nil {
		s.err = err
		return
	}
	if status == http.StatusConflict && errorCode(data) == service.CodeNoCheckpoint {
		// The root converged during seeding, so it kept no boundary
		// checkpoint to warm-start from (NOTES.md, "the recluster gap").
		s.refused = true
		return
	}
	if status != http.StatusAccepted {
		s.err = fmt.Errorf("recluster: %d %s", status, bytes.TrimSpace(data))
		return
	}
	var rr service.ReclusterResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		s.err = err
		return
	}
	if s.child, err = l.pollDone(top, job, rr.Job.ID, &s.polls); err != nil {
		s.err = err
		return
	}
	l.addServerSpans(top, job, "service.warm_run", s.child)
	if s.childResult, _, err = l.result(top, job, rr.Job.ID); err != nil {
		s.err = err
		return
	}
	s.reclusterS = time.Since(s.rootEnd).Seconds()
	if s.child.Started != nil && s.child.Finished != nil {
		s.warmS = s.child.Finished.Sub(*s.child.Started).Seconds()
	}
}

// patch appends the session's rows to the root's lineage matrix.
func (l *serveLoad) patch(top int, job, id string, s *session) error {
	req := service.MatrixPatchRequest{AppendRows: make([][]*float64, len(s.patch))}
	for i, row := range s.patch {
		req.AppendRows[i] = make([]*float64, len(row))
		for j := range row {
			if !math.IsNaN(row[j]) {
				req.AppendRows[i][j] = &row[j]
			}
		}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	sp := l.tr.begin("stream.patch", top, job)
	t0 := time.Now()
	status, data, err := call(l.ctx, l.cl, http.MethodPatch, l.base+"/v1/jobs/"+id+"/matrix", "application/json", body)
	s.patchS = time.Since(t0).Seconds()
	l.tr.finish(sp)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("patch: %d %s", status, bytes.TrimSpace(data))
	}
	return nil
}

func errorCode(body []byte) string {
	var eb service.ErrorBody
	if json.Unmarshal(body, &eb) != nil {
		return ""
	}
	return eb.Error.Code
}

// patchRows draws the rows one session appends: new users rating
// about the same number of movies as the stand-in's users, on its
// 1..10 integer scale.
func patchRows(rng *stats.RNG, n, cols int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, cols)
		for j := range row {
			row[j] = math.NaN()
			if rng.Bool(0.06) {
				row[j] = float64(rng.UniformInt(1, 10))
			}
		}
		out[i] = row
	}
	return out
}

// warmUp waits for the coordinator and pushes one short job through
// it, so connections, lazy caches and the heap are ready when the
// measured sessions start. Its seed and iteration cap are fixed: the
// warm-up prepares the deployment and is not part of the workload.
func warmUp(ctx context.Context, c *serveCluster, cl *http.Client, m *matrix.Matrix) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := c.waitReady(ctx, cl); err != nil {
		return err
	}
	p := serveParams(1)
	p.MaxIterations = 1
	body, err := service.EncodeBinarySubmit(&service.SubmitRequest{Algorithm: service.AlgoFLOC, FLOC: &p}, m)
	if err != nil {
		return err
	}
	status, data, err := call(ctx, cl, http.MethodPost, c.coordURL+"/v1/jobs", service.ContentTypeBinaryMatrix, body)
	if err != nil {
		return err
	}
	var sub coord.SubmitResponse
	if status != http.StatusAccepted || json.Unmarshal(data, &sub) != nil {
		return fmt.Errorf("warm-up submit: %d %s", status, bytes.TrimSpace(data))
	}
	l := &serveLoad{cl: cl, base: c.coordURL, ctx: ctx}
	var polls int
	if _, err := l.pollDone(0, "", sub.Job.ID, &polls); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	_, _, err = l.result(0, "", sub.Job.ID)
	return err
}

// scrape reads a /metrics endpoint.
func scrape[T any](ctx context.Context, cl *http.Client, base string) (T, error) {
	var v T
	err := getJSON(ctx, cl, base+"/metrics", &v)
	return v, err
}

func runServeRatings(rc runConfig) (*outcome, error) {
	seeds := stats.NewRNG(rc.seed)
	dataSeeds := make([]int64, serveDatasets)
	for i := range dataSeeds {
		dataSeeds[i] = nextSeed(seeds)
	}
	patchSeed := nextSeed(seeds)

	cl := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClientConns,
		MaxIdleConnsPerHost: serveClientConns,
		DisableCompression:  true,
	}}
	defer cl.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		ms []*matrix.Matrix
		cu *serveCluster
	)
	setupS, err := timeSetup(serveSetupReps, func() (func() error, error) {
		built := make([]*matrix.Matrix, len(dataSeeds))
		for i, seed := range dataSeeds {
			ds, err := synth.MovieLens(synth.DefaultMovieLensConfig(), seed)
			if err != nil {
				return nil, err
			}
			built[i] = ds.Matrix
		}
		c, err := startCluster(rc.seed)
		if err != nil {
			return nil, err
		}
		if err := warmUp(ctx, c, cl, built[0]); err != nil {
			return nil, errors.Join(err, c.stop())
		}
		ms, cu = built, c
		return c.stop, nil
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = cu.stop() // error path; the run already failed
		}
	}()

	// The schedule: session i is due i/serveRate seconds after the
	// start, whatever happened to the sessions before it.
	n := int(serveRate * rc.duration.Seconds())
	if n < 1 {
		n = 1
	}
	rng := stats.NewRNG(patchSeed)
	sessions := make([]*session, n)
	for i := range sessions {
		m := ms[i%len(ms)]
		sessions[i] = &session{
			idx:     i,
			m:       m,
			jobSeed: nextSeed(seeds),
			patch:   patchRows(rng, servePatchRows, m.Cols()),
		}
	}
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	coordBefore, err := scrape[coord.MetricsView](ctx, cl, cu.coordURL)
	if err != nil {
		return nil, err
	}

	lctx, lcancel := context.WithTimeout(ctx, rc.duration+serveDrainTimeout)
	defer lcancel()
	load := &serveLoad{tr: rc.tracer, cl: cl, base: cu.coordURL, ctx: lctx}
	var wg sync.WaitGroup
	rss := startRSS()
	start := time.Now()
	for i, s := range sessions {
		s.due = start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		s.lag = time.Since(s.due).Seconds()
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			load.run(s)
		}(s)
	}
	wg.Wait()
	rssMB := rss.finish()

	// Everything below is untimed: memory, counters, checks.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	stored, rejectedQueue := 0, 0
	for _, u := range cu.urls {
		mv, err := scrape[service.MetricsView](ctx, cl, u)
		if err != nil {
			return nil, err
		}
		stored += mv.Jobs.Stored
		rejectedQueue += int(mv.Jobs.RejectedQueueFull)
	}
	if rc.tracer != nil {
		// Let the coordinator's sync loop land the last boundary
		// checkpoints before counting replication work.
		time.Sleep(time.Second)
	}
	coordAfter, err := scrape[coord.MetricsView](ctx, cl, cu.coordURL)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := cu.stop(); err != nil {
		return nil, fmt.Errorf("stopping the cluster: %w", err)
	}

	o := &outcome{endToEnd: map[string]float64{"setup_s": setupS, "rss_mb": rssMB}}
	var (
		times, residues, volumes               []float64
		lags, submits, queues, runs, results   []float64
		patches, reclusterSubmits, warms, recl []float64
		polls, roots                           int
		refused                                int
		lastEnd                                time.Time
	)
	for _, s := range sessions {
		o.attempted += s.attempted
		if s.err != nil || s.refused {
			o.failed++
		}
		if s.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: session %d failed: %v\n", s.idx, s.err)
		}
		if s.refused {
			refused++
		}
		lags = append(lags, s.lag)
		if s.end.After(lastEnd) {
			lastEnd = s.end
		}
		submits = append(submits, s.submitS)
		if s.rootResult == nil {
			continue
		}
		roots++
		times = append(times, s.rootEnd.Sub(s.due).Seconds())
		polls += s.polls
		queues = append(queues, s.root.Started.Sub(s.root.Created).Seconds())
		runs = append(runs, s.root.Finished.Sub(*s.root.Started).Seconds())
		results = append(results, s.resultS)
		patches = append(patches, s.patchS)
		reclusterSubmits = append(reclusterSubmits, s.reclusterSubmitS)
		residues = append(residues, s.rootResult.AvgResidue)
		volumes = append(volumes, viewVolume(s.rootResult, serveDelta))
		if s.childResult != nil {
			residues = append(residues, s.childResult.AvgResidue)
			volumes = append(volumes, viewVolume(s.childResult, serveDelta))
			warms = append(warms, s.warmS)
			recl = append(recl, s.reclusterS)
		}
	}
	o.endToEnd["job_s.p50"] = quantile(times, 0.5)
	o.endToEnd["jobs_per_s"] = float64(roots) / lastEnd.Sub(start).Seconds()

	refs, err := checkServe(rc.tracer, sessions)
	o.checkErr = err

	if rc.tracer != nil {
		perJob := func(a, b uint64) float64 {
			if roots == 0 {
				return 0
			}
			return float64(a-b) / float64(roots)
		}
		retained := 0.0
		if stored > 0 && after.HeapAlloc > base.HeapAlloc {
			retained = float64(after.HeapAlloc-base.HeapAlloc) / float64(stored) / (1 << 20)
		}
		pollsPerJob := 0.0
		if roots > 0 {
			pollsPerJob = float64(polls) / float64(roots+len(warms))
		}
		if o.perLayer, err = flocLayerMetrics(rc.tracer, refs, refs); err != nil {
			return nil, err
		}
		mm, err := matrixLayerMetrics(rc.tracer, ms[0])
		if err != nil {
			return nil, err
		}
		for k, v := range mm {
			o.perLayer[k] = v
		}
		for k, v := range map[string]float64{
			"floc.avg_residue":               mean(residues),
			"floc.volume":                    mean(volumes),
			"coord.submit_s.p50":             quantile(submits, 0.5),
			"coord.replica_puts":             perJob(coordAfter.Replication.ReplicaPuts, coordBefore.Replication.ReplicaPuts),
			"coord.checkpoint_pulls":         perJob(coordAfter.Replication.CheckpointPulls, coordBefore.Replication.CheckpointPulls),
			"coord.replica_put_failures":     perJob(coordAfter.Replication.ReplicaPutFails, coordBefore.Replication.ReplicaPutFails),
			"service.queue_s.p50":            quantile(queues, 0.5),
			"service.queue_s.p90":            quantile(queues, 0.9),
			"service.run_s.p50":              quantile(runs, 0.5),
			"service.result_s.p50":           quantile(results, 0.5),
			"service.polls_per_job":          pollsPerJob,
			"service.recluster_submit_s.p50": quantile(reclusterSubmits, 0.5),
			"service.warm_run_s.p50":         quantile(warms, 0.5),
			"service.retained_mb_per_job":    retained,
			"service.rejected_queue_full":    float64(rejectedQueue),
			"service.recluster_refused":      float64(refused),
			"stream.patch_s.p50":             quantile(patches, 0.5),
			"stream.recluster_s.p50":         quantile(recl, 0.5),
			"loadgen.lag_s.max":              quantile(lags, 1),
			"loadgen.job_s.p90":              quantile(times, 0.9),
		} {
			o.perLayer[k] = v
		}
	}
	return o, nil
}

// viewVolume is the aggregate volume of a result's significant
// clusters: at least 3×3 with residue within δ.
func viewVolume(rv *service.ResultView, delta float64) float64 {
	var v int
	for _, c := range rv.Clusters {
		if len(c.Rows) >= 3 && len(c.Cols) >= 3 && c.Residue <= delta {
			v += c.Volume
		}
	}
	return float64(v)
}

func clusterViews(rv *service.ResultView) []clusterView {
	out := make([]clusterView, len(rv.Clusters))
	for i, c := range rv.Clusters {
		out[i] = clusterView{rows: c.Rows, cols: c.Cols, volume: c.Volume, residue: c.Residue}
	}
	return out
}

// referenceRuns runs each root's job in process, serveRefWorkers at
// a time, with the configuration the service resolves its parameters
// to.
func referenceRuns(tr *tracer, sessions []*session) (map[int64]*flocJob, []*flocJob, error) {
	var (
		mu    sync.Mutex
		refs  = make(map[int64]*flocJob)
		order = make([]*flocJob, 0, len(sessions))
		errs  []error
		wg    sync.WaitGroup
	)
	next := make(chan *session)
	for w := 0; w < serveRefWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				seed := s.jobSeed
				j, err := runFLOC(tr, s.m, serveConfig(seed), fmt.Sprintf("ref%d", seed))
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					refs[seed] = j
				}
				mu.Unlock()
			}
		}()
	}
	for _, s := range sessions {
		if s.rootResult != nil {
			next <- s
		}
	}
	close(next)
	wg.Wait()
	for _, s := range sessions {
		if j := refs[s.jobSeed]; j != nil && s.rootResult != nil {
			order = append(order, j)
		}
	}
	return refs, order, errors.Join(errs...)
}

// checkServe verifies every served clustering against its matrix and
// every root result against an in-process run of the same job, which
// must agree bit for bit. It returns the reference runs, which the
// traced run turns into the floc layer's metrics.
func checkServe(tr *tracer, sessions []*session) ([]*flocJob, error) {
	refs, order, err := referenceRuns(tr, sessions)
	if err != nil {
		return order, err
	}
	for _, s := range sessions {
		if s.rootResult == nil {
			continue
		}
		rv := s.rootResult
		if err := checkClusterViews(s.m, clusterViews(rv), rv.AvgResidue, serveDelta); err != nil {
			return order, fmt.Errorf("session %d root: %w", s.idx, err)
		}
		if rv.BestSeed != s.jobSeed {
			return order, fmt.Errorf("session %d root ran seed %d, submitted %d", s.idx, rv.BestSeed, s.jobSeed)
		}
		ref := refs[s.jobSeed]
		if math.Float64bits(ref.res.AvgResidue) != math.Float64bits(rv.AvgResidue) {
			return order, fmt.Errorf("session %d: served avg residue %v, in-process %v (seed %d)",
				s.idx, rv.AvgResidue, ref.res.AvgResidue, s.jobSeed)
		}
		if s.err == nil && (ref.res.FinalCheckpoint == nil) != s.refused {
			return order, fmt.Errorf("session %d: recluster refused = %v, but the in-process run kept a checkpoint = %v",
				s.idx, s.refused, ref.res.FinalCheckpoint != nil)
		}
		if s.childResult == nil {
			continue
		}
		pm := s.m.Clone()
		if err := pm.AppendRows(s.patch); err != nil {
			return order, err
		}
		cv := s.childResult
		if err := checkClusterViews(pm, clusterViews(cv), cv.AvgResidue, serveDelta); err != nil {
			return order, fmt.Errorf("session %d recluster: %w", s.idx, err)
		}
	}
	return order, nil
}
