package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// deterministicMetrics repeat exactly for a workload seed: they count
// work or describe results, never time.
var deterministicMetrics = []string{
	"floc.avg_residue", "floc.volume",
	"floc.gain_evals", "floc.actions", "floc.iterations",
	"service.recluster_refused", "service.rejected_queue_full",
}

// shortSynthetic is synthetic-iterate cut to two jobs, which keeps the
// determinism tests quick without changing what a job does.
func shortSynthetic(rc runConfig) (*outcome, error) {
	spec := syntheticSpec()
	spec.minJobs = 2
	return runInProcess(rc, spec)
}

// shortServe runs serve-ratings for two seconds: two sessions.
func shortServe(rc runConfig) (*outcome, error) {
	rc.duration = 2 * time.Second
	return runServeRatings(rc)
}

func traced(t *testing.T, run func(runConfig) (*outcome, error), seed int64) *outcome {
	t.Helper()
	o, err := run(runConfig{seed: seed, duration: time.Millisecond, tracer: newTracer()})
	if err != nil {
		t.Fatal(err)
	}
	if o.checkErr != nil {
		t.Fatalf("seed %d: output check failed: %v", seed, o.checkErr)
	}
	return o
}

func TestRepeatRunsAgree(t *testing.T) {
	for name, run := range map[string]func(runConfig) (*outcome, error){
		"synthetic-iterate": shortSynthetic,
		"serve-ratings":     shortServe,
	} {
		t.Run(name, func(t *testing.T) {
			a, b := traced(t, run, 7), traced(t, run, 7)
			if a.attempted != b.attempted || a.failed != b.failed {
				t.Errorf("attempted/failed %d/%d, then %d/%d", a.attempted, a.failed, b.attempted, b.failed)
			}
			for _, k := range deterministicMetrics {
				if math.Float64bits(a.perLayer[k]) != math.Float64bits(b.perLayer[k]) {
					t.Errorf("%s = %v, then %v", k, a.perLayer[k], b.perLayer[k])
				}
			}
		})
	}
}

func TestHeldOutSeedDiffers(t *testing.T) {
	for name, run := range map[string]func(runConfig) (*outcome, error){
		"synthetic-iterate": shortSynthetic,
		"serve-ratings":     shortServe,
	} {
		t.Run(name, func(t *testing.T) {
			a, b := traced(t, run, 7), traced(t, run, 8) // traced checks both outputs
			if a.perLayer["floc.gain_evals"] == b.perLayer["floc.gain_evals"] &&
				a.perLayer["floc.avg_residue"] == b.perLayer["floc.avg_residue"] {
				t.Errorf("seeds 7 and 8 gave the same outputs: %v evaluations, avg residue %v",
					a.perLayer["floc.gain_evals"], a.perLayer["floc.avg_residue"])
			}
		})
	}
}

// TestSmokeReportsEveryMetric runs the command end to end in both
// trace modes and checks the last line of its output.
func TestSmokeReportsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })

	for _, w := range []string{"serve-ratings", "synthetic-iterate"} {
		for _, tr := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", tr}
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("%v: %v\n%s", args, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			defs := endToEnd
			if tr == "1" {
				defs = perLayer
			}
			if !rep.Correct || rep.Attempted < 1 || len(rep.Metrics) != len(defs) {
				t.Errorf("%v: correct=%v attempted=%d with %d metrics, want %d",
					args, rep.Correct, rep.Attempted, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%v: metric %s = %+v, want unit %q", args, d.name, m, d.unit)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(buildDir, "spans-serve-ratings-3.json")); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric
// tables and the workload list.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s %s, want %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s %s, want %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// A 10 s parent with children over [1,4], [3,6] (overlapping) and
	// [8,12] (running past the parent's end): they cover 5+2 = 7 s.
	sec := int64(time.Second)
	spans := []span{
		{ID: 1, Name: "loadgen.session", Start: 0, End: 10 * sec},
		{ID: 2, Parent: 1, Name: "coord.submit", Start: 1 * sec, End: 4 * sec},
		{ID: 3, Parent: 1, Name: "service.poll", Start: 3 * sec, End: 6 * sec},
		{ID: 4, Parent: 1, Name: "service.run", Start: 8 * sec, End: 12 * sec},
	}
	s := summarize(spans)
	want := map[string]float64{"loadgen": 3, "coord": 3, "service": 7}
	for layer, v := range want {
		if math.Abs(s.LayerSelf[layer]-v) > 1e-9 {
			t.Errorf("layer %s self time %v, want %v", layer, s.LayerSelf[layer], v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
