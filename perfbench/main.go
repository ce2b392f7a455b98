// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time against the deltacluster packages, checks
// that the outputs are correct, and prints one JSON object as the last
// line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around every call into a layer and reports the
// per-layer metrics instead, writing the spans under .bench_build. The
// program under test is driven only through its public package
// functions and its HTTP API; nothing inside it is instrumented.
//
// Build and run from the repository root:
//
//	bash perfbench/run.sh --workload microarray-seed --seed 1 --seconds 35 --trace 0
//
// NOTES.md explains the workloads, the metrics and the measured spread.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the system sees. Every
// workload reports every one of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s.p50", "s"},
	{"jobs_per_s", "1/s"},
	{"rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, grouped by the layer whose
// public functions the span wraps. A workload that does not exercise
// a layer reports 0 for it (see NOTES.md).
var perLayer = []metricDef{
	{"floc.avg_residue", "residue"},
	{"floc.volume", "entries"},
	{"floc.seed_s.p50", "s"},
	{"floc.iterate_s.p50", "s"},
	{"floc.tail_s.p50", "s"},
	{"floc.evals_per_s", "1/s"},
	{"floc.gain_evals", "count"},
	{"floc.actions", "count"},
	{"floc.iterations", "count"},
	{"floc.checkpoint_bytes", "bytes"},
	{"floc.checkpoint_encode_s", "s"},
	{"matrix.dcmx_encode_s", "s"},
	{"matrix.dcmx_decode_s", "s"},
	{"matrix.dcmx_bytes", "bytes"},
	{"coord.submit_s.p50", "s"},
	{"coord.replica_puts", "count"},
	{"coord.checkpoint_pulls", "count"},
	{"coord.replica_put_failures", "count"},
	{"service.queue_s.p50", "s"},
	{"service.queue_s.p90", "s"},
	{"service.run_s.p50", "s"},
	{"service.result_s.p50", "s"},
	{"service.polls_per_job", "count"},
	{"service.recluster_submit_s.p50", "s"},
	{"service.warm_run_s.p50", "s"},
	{"service.retained_mb_per_job", "MB"},
	{"service.rejected_queue_full", "count"},
	{"service.recluster_refused", "count"},
	{"stream.patch_s.p50", "s"},
	{"stream.recluster_s.p50", "s"},
	{"loadgen.lag_s.max", "s"},
	{"loadgen.job_s.p90", "s"},
}

// runConfig is what a workload receives: the workload seed, the
// measuring time and, in a traced run, the span recorder.
type runConfig struct {
	seed     int64
	duration time.Duration
	tracer   *tracer // nil with tracing off
}

// outcome is what a workload returns. Metrics holds values by name;
// the units come from the tables above.
type outcome struct {
	attempted, failed int
	endToEnd          map[string]float64
	perLayer          map[string]float64
	// checkErr is the first correctness violation found, if any.
	checkErr error
}

// workload is one named set of inputs; NOTES.md says why each exists.
type workload struct {
	name string
	run  func(rc runConfig) (*outcome, error)
}

var workloads = []workload{
	{"microarray-seed", runMicroarraySeed},
	{"synthetic-iterate", runSyntheticIterate},
	{"serve-ratings", runServeRatings},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// metric is one entry of the printed report.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildReport selects the metric table for the trace mode and fails
// if the workload left any declared metric out.
func buildReport(o *outcome, traced bool) (*report, error) {
	defs, values := endToEnd, o.endToEnd
	if traced {
		defs, values = perLayer, o.perLayer
	}
	r := &report{
		Correct:   o.checkErr == nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload did not report %s", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.Attempted < 1 {
		return nil, errors.New("workload attempted no operation")
	}
	return r, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed; job seeds and inputs derive from it")
	seconds := fs.Float64("seconds", 35, "measuring time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds = %v, want > 0", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace = %d, want 0 or 1", *trace)
	}
	rc := runConfig{seed: *seed, duration: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		rc.tracer = newTracer()
	}
	o, err := w.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if o.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", w.name, o.checkErr)
	}
	rep, err := buildReport(o, rc.tracer != nil)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if err := writeSidecars(w.name, *seed, rc.tracer, o, stderr); err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// buildDir holds everything a run leaves behind; run.sh builds there
// too, so one ignored directory covers all of it.
const buildDir = ".bench_build"

// writeSidecars stores an untraced run's end-to-end numbers and a
// traced run's spans under buildDir, and prints the traced run's
// self-time summary with the tracing overhead against the last
// untraced run of the same workload, when one exists.
func writeSidecars(workload string, seed int64, tr *tracer, o *outcome, stderr io.Writer) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	untracedPath := filepath.Join(buildDir, "endtoend-"+workload+".json")
	if tr == nil {
		return writeJSONFile(untracedPath, o.endToEnd)
	}
	spansPath := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	sum := summarize(tr.spans())
	if prev, err := untracedJobP50(untracedPath); err == nil {
		d := o.endToEnd["job_s.p50"] - prev
		sum.OverheadS = &d
	}
	if err := writeJSONFile(spansPath, struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Summary  summary `json:"summary"`
		Spans    []span  `json:"spans"`
	}{workload, seed, sum, tr.spans()}); err != nil {
		return err
	}
	sum.print(stderr)
	return nil
}

// untracedJobP50 reads job_s.p50 from an untraced run's sidecar.
func untracedJobP50(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, err
	}
	v, ok := m["job_s.p50"]
	if !ok {
		return 0, fmt.Errorf("%s has no job_s.p50", path)
	}
	return v, nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is not modified). It is 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// rssSampler records the process's resident set size every interval
// until finish is called.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const rssInterval = 20 * time.Millisecond

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			r.samples = append(r.samples, rssMB())
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the mean sample in MiB.
func (r *rssSampler) finish() float64 {
	close(r.stop)
	<-r.done
	return mean(r.samples)
}

// rssMB is the current resident set in MiB, from /proc/self/statm, or
// the Go runtime's total where that is not available.
func rssMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// timeSetup runs setup reps times and returns the median duration in
// seconds. Each rep builds the workload's state from scratch and
// returns a release function; every rep but the last is released
// after its timing, so the run keeps the last rep's state.
func timeSetup(reps int, setup func() (release func() error, err error)) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		release, err := setup()
		if err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
		if i < reps-1 {
			if err := release(); err != nil {
				return 0, err
			}
		}
	}
	return quantile(ds, 0.5), nil
}
