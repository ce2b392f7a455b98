package main

import (
	"context"
	"fmt"
	"time"

	"deltacluster/internal/cluster"
	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
	"deltacluster/internal/synth"
)

// inprocSetupReps is how many times an in-process workload builds its
// inputs; setup_s is the median, which keeps a one-off stall out of it.
const inprocSetupReps = 5

// inprocDatasets is how many input matrices a run generates from its
// workload seed; jobs take them in turn. A job's cost depends on its
// matrix as much as on its job seed, so one matrix per run would make
// the run-to-run spread of job_s mostly the spread between matrices.
const inprocDatasets = 4

// inprocSpec is an in-process workload: its input matrices and a FLOC
// configuration per job. Jobs run one at a time on the calling
// goroutine, each with its own job seed, until the measuring time is
// up.
type inprocSpec struct {
	// minJobs always run, even past the measuring time. The work
	// counters and quality figures cover exactly these jobs, so they
	// repeat for a workload seed whatever the machine's speed.
	minJobs int
	data    func(seed int64) (*matrix.Matrix, error)
	config  func(jobSeed int64) floc.Config
}

// runMicroarraySeed loads the seeding layer: the full yeast stand-in
// with k = 2×modules and δ = 2.5× module noise, as the Section 6.1.2
// experiment runs it. Anchored seeding takes nearly all of each job,
// and phase 2 rarely finds an improving iteration.
func runMicroarraySeed(rc runConfig) (*outcome, error) {
	return runInProcess(rc, microarraySpec())
}

func microarraySpec() inprocSpec {
	ycfg := synth.DefaultYeastConfig()
	return inprocSpec{
		minJobs: 4,
		data: func(seed int64) (*matrix.Matrix, error) {
			ds, err := synth.Yeast(ycfg, seed)
			if err != nil {
				return nil, err
			}
			return ds.Matrix, nil
		},
		config: func(jobSeed int64) floc.Config {
			cfg := floc.DefaultConfig(2*ycfg.Modules, 2.5*ycfg.NoiseResidue)
			cfg.MaxIterations = 60
			cfg.Workers = 1
			cfg.Seed = jobSeed
			return cfg
		},
	}
}

// runSyntheticIterate loads phase 2: the paper's Table-3 synthetic
// shape at 2000×100 with 30 embedded clusters of mean volume 800, the
// (0.04·N)×(0.1·M) aspect and residue 5, clustered with the paper's
// random seeding. Seeding is cheap; some thirty improving iterations
// of decide/apply take nearly all of each job.
func runSyntheticIterate(rc runConfig) (*outcome, error) {
	return runInProcess(rc, syntheticSpec())
}

func syntheticSpec() inprocSpec {
	const rows, cols = 2000, 100
	return inprocSpec{
		minJobs: 4,
		data: func(seed int64) (*matrix.Matrix, error) {
			ds, err := synth.Generate(synth.Config{
				Rows: rows, Cols: cols, NumClusters: 30,
				VolumeMean:    800,
				RowColRatio:   (0.04 * rows) / (0.1 * cols),
				TargetResidue: 5,
			}, seed)
			if err != nil {
				return nil, err
			}
			return ds.Matrix, nil
		},
		config: func(jobSeed int64) floc.Config {
			cfg := floc.DefaultConfig(30, 15)
			cfg.SeedMode = floc.SeedRandom
			cfg.SeedRowProbability = 0.05
			cfg.SeedColProbability = 0.2
			cfg.MaxIterations = 60
			cfg.Workers = 1
			cfg.Seed = jobSeed
			return cfg
		},
	}
}

// flocJob is one timed FLOC run. The phase boundaries come from
// OnProgress and are only taken in a traced run.
type flocJob struct {
	cfg     floc.Config
	seconds float64
	res     *floc.Result
	phases  *flocPhases
}

// flocPhases splits a run at its first and last progress report:
// seeding before the first, improving iterations between them, and
// the final non-improving pass plus polish after the last.
type flocPhases struct {
	seed, iterate, tail float64
}

// runFLOC runs one FLOC job the way the service's pool does (final
// checkpoint kept), recording spans in a traced run.
func runFLOC(tr *tracer, m *matrix.Matrix, cfg floc.Config, job string) (*flocJob, error) {
	opts := floc.RunOptions{KeepFinalCheckpoint: true}
	var marks []time.Time
	if tr != nil {
		opts.OnProgress = func(floc.Progress) { marks = append(marks, time.Now()) }
	}
	root := tr.begin("floc.run", 0, job)
	start := time.Now()
	res, err := floc.RunWithOptions(context.Background(), m, cfg, opts)
	end := time.Now()
	tr.finish(root)
	if err != nil {
		return nil, fmt.Errorf("job %s (seed %d): %w", job, cfg.Seed, err)
	}
	j := &flocJob{cfg: cfg, seconds: end.Sub(start).Seconds(), res: res}
	if len(marks) > 0 {
		first, last := marks[0], marks[len(marks)-1]
		tr.add("floc.seed", root, job, start, first)
		tr.add("floc.iterate", root, job, first, last)
		tr.add("floc.tail", root, job, last, end)
		j.phases = &flocPhases{
			seed:    first.Sub(start).Seconds(),
			iterate: last.Sub(first).Seconds(),
			tail:    end.Sub(last).Seconds(),
		}
	}
	return j, nil
}

func runInProcess(rc runConfig, spec inprocSpec) (*outcome, error) {
	seeds := stats.NewRNG(rc.seed)
	dataSeeds := make([]int64, inprocDatasets)
	for i := range dataSeeds {
		dataSeeds[i] = nextSeed(seeds)
	}

	var ms []*matrix.Matrix
	setupS, err := timeSetup(inprocSetupReps, func() (func() error, error) {
		built := make([]*matrix.Matrix, len(dataSeeds))
		for i, ds := range dataSeeds {
			m, err := spec.data(ds)
			if err != nil {
				return nil, err
			}
			m.EnsureDerived()
			built[i] = m
		}
		ms = built
		return func() error { return nil }, nil
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	// The measured loop. Each job is checked as soon as it returns,
	// outside its timed interval; only the first minJobs keep their
	// clusterings, for the quality figures.
	var (
		times    []float64
		jobs     []*flocJob
		checkErr error
	)
	rss := startRSS()
	deadline := time.Now().Add(rc.duration)
	for i := 0; i < spec.minJobs || time.Now().Before(deadline); i++ {
		m := ms[i%len(ms)]
		cfg := spec.config(nextSeed(seeds))
		j, err := runFLOC(rc.tracer, m, cfg, fmt.Sprintf("job%d", i))
		if err != nil {
			rss.finish()
			return nil, err
		}
		times = append(times, j.seconds)
		if err := checkClusters(m, j.res, cfg.MaxResidue); err != nil && checkErr == nil {
			checkErr = fmt.Errorf("job %d (seed %d): %w", i, cfg.Seed, err)
		}
		if i >= spec.minJobs {
			j.res.Clusters, j.res.FinalCheckpoint = nil, nil
		}
		jobs = append(jobs, j)
	}
	rssMB := rss.finish()

	o := &outcome{
		attempted: len(times),
		checkErr:  checkErr,
		endToEnd: map[string]float64{
			"setup_s":    setupS,
			"job_s.p50":  quantile(times, 0.5),
			"jobs_per_s": float64(len(times)) / sum(times),
			"rss_mb":     rssMB,
		},
	}
	if rc.tracer != nil {
		first := jobs[:spec.minJobs]
		if o.perLayer, err = flocLayerMetrics(rc.tracer, jobs, first); err != nil {
			return nil, err
		}
		var residues, volumes []float64
		for _, j := range first {
			residues = append(residues, j.res.AvgResidue)
			volumes = append(volumes, significantVolume(j.res.Clusters, j.cfg.MaxResidue))
		}
		o.perLayer["floc.avg_residue"] = mean(residues)
		o.perLayer["floc.volume"] = mean(volumes)
		o.perLayer["loadgen.job_s.p90"] = quantile(times, 0.9)
		mm, err := matrixLayerMetrics(rc.tracer, ms[0])
		if err != nil {
			return nil, err
		}
		for k, v := range mm {
			o.perLayer[k] = v
		}
		zeroUnexercised(o.perLayer)
	}
	return o, nil
}

// nextSeed draws the next job or data seed from a workload seed's
// stream; equal workload seeds give equal streams.
func nextSeed(rng *stats.RNG) int64 { return 1 + rng.Int63()%1_000_000 }

// significantVolume is the aggregate volume of a clustering's
// significant clusters (floc.Significant under δ).
func significantVolume(clusters []*cluster.Cluster, delta float64) float64 {
	var v int
	for _, c := range floc.Significant(clusters, delta) {
		v += c.Volume()
	}
	return float64(v)
}

// checkClusters recomputes every cluster's residue from the matrix,
// compares it with the engine's, checks the reported average, and
// checks that every significant cluster is within δ.
func checkClusters(m *matrix.Matrix, res *floc.Result, delta float64) error {
	if len(res.Clusters) == 0 {
		return fmt.Errorf("no clusters")
	}
	views := make([]clusterView, len(res.Clusters))
	for i, c := range res.Clusters {
		views[i] = clusterView{rows: c.Rows(), cols: c.Cols(), volume: c.Volume(), residue: c.Residue()}
	}
	return checkClusterViews(m, views, res.AvgResidue, delta)
}

// clusterView is a reported cluster, whichever way it was reported.
type clusterView struct {
	rows, cols []int
	volume     int
	residue    float64
}

func checkClusterViews(m *matrix.Matrix, views []clusterView, avgResidue, delta float64) error {
	var sum float64
	for i, v := range views {
		r := cluster.ResidueOf(m, v.rows, v.cols)
		if !stats.Close(r, v.residue) {
			return fmt.Errorf("cluster %d (%dx%d): reported residue %v, recomputed %v",
				i, len(v.rows), len(v.cols), v.residue, r)
		}
		if len(v.rows) >= 3 && len(v.cols) >= 3 && v.residue <= delta && r > delta && !stats.Close(r, delta) {
			return fmt.Errorf("significant cluster %d: recomputed residue %v exceeds δ = %v", i, r, delta)
		}
		if v.volume > len(v.rows)*len(v.cols) {
			return fmt.Errorf("cluster %d: volume %d exceeds %dx%d", i, v.volume, len(v.rows), len(v.cols))
		}
		sum += r
	}
	if avg := sum / float64(len(views)); !stats.Close(avg, avgResidue) {
		return fmt.Errorf("reported average residue %v, recomputed %v", avgResidue, avg)
	}
	return nil
}

// flocLayerMetrics turns the traced FLOC runs into the floc layer's
// metrics. Work counters are means over the first jobs, so they repeat
// exactly for a workload seed; phase times are medians over all jobs.
func flocLayerMetrics(tr *tracer, all, first []*flocJob) (map[string]float64, error) {
	var seedS, iterS, tailS []float64
	var evals, busy float64
	for _, j := range all {
		if j.phases == nil {
			continue
		}
		seedS = append(seedS, j.phases.seed)
		iterS = append(iterS, j.phases.iterate)
		tailS = append(tailS, j.phases.tail)
		evals += float64(j.res.GainEvaluations)
		busy += j.phases.iterate + j.phases.tail
	}
	var gainEvals, actions, iterations, ckBytes []float64
	var ckSeconds []float64
	for _, j := range first {
		gainEvals = append(gainEvals, float64(j.res.GainEvaluations))
		actions = append(actions, float64(j.res.ActionsApplied))
		iterations = append(iterations, float64(j.res.Iterations))
		if j.res.FinalCheckpoint == nil {
			continue
		}
		sp := tr.begin("floc.checkpoint_encode", 0, fmt.Sprintf("seed%d", j.cfg.Seed))
		t0 := time.Now()
		data, err := floc.EncodeCheckpoint(j.res.FinalCheckpoint)
		d := time.Since(t0).Seconds()
		tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("encoding the final checkpoint of seed %d: %w", j.cfg.Seed, err)
		}
		ckBytes = append(ckBytes, float64(len(data)))
		ckSeconds = append(ckSeconds, d)
	}
	out := map[string]float64{
		"floc.seed_s.p50":          quantile(seedS, 0.5),
		"floc.iterate_s.p50":       quantile(iterS, 0.5),
		"floc.tail_s.p50":          quantile(tailS, 0.5),
		"floc.gain_evals":          mean(gainEvals),
		"floc.actions":             mean(actions),
		"floc.iterations":          mean(iterations),
		"floc.checkpoint_bytes":    mean(ckBytes),
		"floc.checkpoint_encode_s": quantile(ckSeconds, 0.5),
		"floc.evals_per_s":         0,
	}
	if busy > 0 {
		out["floc.evals_per_s"] = evals / busy
	}
	return out, nil
}

// matrixLayerMetrics times the DCMX codec on the workload's input and
// checks that the round trip reproduces the matrix.
func matrixLayerMetrics(tr *tracer, m *matrix.Matrix) (map[string]float64, error) {
	const reps = 5
	var enc, dec []float64
	var size int
	for i := 0; i < reps; i++ {
		sp := tr.begin("matrix.dcmx_encode", 0, "codec")
		t0 := time.Now()
		data := matrix.EncodeBinary(m)
		enc = append(enc, time.Since(t0).Seconds())
		tr.finish(sp)
		size = len(data)
		sp = tr.begin("matrix.dcmx_decode", 0, "codec")
		t0 = time.Now()
		back, err := matrix.DecodeBinary(data, 0)
		dec = append(dec, time.Since(t0).Seconds())
		tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("DCMX round trip: %w", err)
		}
		if !back.Equal(m) {
			return nil, fmt.Errorf("DCMX round trip changed the matrix")
		}
	}
	return map[string]float64{
		"matrix.dcmx_encode_s": quantile(enc, 0.5),
		"matrix.dcmx_decode_s": quantile(dec, 0.5),
		"matrix.dcmx_bytes":    float64(size),
	}, nil
}

// zeroUnexercised fills every per-layer metric a workload did not
// measure with 0: the in-process workloads bypass the serving layers.
func zeroUnexercised(values map[string]float64) {
	for _, d := range perLayer {
		if _, ok := values[d.name]; !ok {
			values[d.name] = 0
		}
	}
}
