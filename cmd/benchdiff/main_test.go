package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cannedBench is verbatim `go test -bench -benchmem` output, including
// the non-benchmark lines the parser must skip and a -GOMAXPROCS name
// suffix it must strip.
const cannedBench = `goos: linux
goarch: amd64
pkg: deltacluster/internal/floc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDecideAll/workers=1-8         	     500	   2100000 ns/op	      48 B/op	       0 allocs/op
BenchmarkDecideAll/workers=2-8         	     480	   2300000 ns/op	    2048 B/op	       5 allocs/op
BenchmarkIterate                       	     400	   9000000 ns/op	  108232 B/op	      53 allocs/op
BenchmarkUnrecorded                    	    1000	   1000000 ns/op
PASS
ok  	deltacluster/internal/floc	12.3s
`

const cannedBaseline = `{
  "suite": "internal/floc",
  "command": "go test -bench . ./internal/floc/",
  "recorded": "2026-01-01",
  "benchmarks": [
    {"name": "BenchmarkDecideAll/workers=1", "ns_per_op": 2000000},
    {"name": "BenchmarkDecideAll/workers=2", "ns_per_op": 2200000},
    {"name": "BenchmarkIterate", "ns_per_op": 3000000},
    {"name": "BenchmarkNotRun", "ns_per_op": 1}
  ]
}`

func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(cannedBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBench(t *testing.T) {
	got, order, err := parseBench(strings.NewReader(cannedBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{
		"BenchmarkDecideAll/workers=1": {ns: 2100000, allocs: 0, hasAllocs: true},
		"BenchmarkDecideAll/workers=2": {ns: 2300000, allocs: 5, hasAllocs: true},
		"BenchmarkIterate":             {ns: 9000000, allocs: 53, hasAllocs: true},
		"BenchmarkUnrecorded":          {ns: 1000000},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, res := range want {
		if got[name] != res {
			t.Errorf("%s = %+v, want %+v", name, got[name], res)
		}
	}
	wantOrder := []string{
		"BenchmarkDecideAll/workers=1",
		"BenchmarkDecideAll/workers=2",
		"BenchmarkIterate",
		"BenchmarkUnrecorded",
	}
	for k, name := range wantOrder {
		if order[k] != name {
			t.Errorf("order[%d] = %s, want %s", k, order[k], name)
		}
	}
}

// With the default advisory mode a 3x regression is reported but does
// not fail the run; with -fail it does.
func TestRunAdvisoryVsFail(t *testing.T) {
	path := writeBaseline(t)

	var out, errOut strings.Builder
	code := run([]string{"-baseline", path}, strings.NewReader(cannedBench), &out, &errOut)
	if code != 0 {
		t.Fatalf("advisory run exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	report := out.String()
	for _, want := range []string{
		"BenchmarkIterate", "REGRESSION",
		"1 regression(s)",
		"advisory mode",
		"BenchmarkUnrecorded", "(not in baseline)",
		"BenchmarkNotRun", "(in baseline, not run)",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("advisory report missing %q:\n%s", want, report)
		}
	}

	out.Reset()
	code = run([]string{"-baseline", path, "-fail"}, strings.NewReader(cannedBench), &out, &errOut)
	if code != 1 {
		t.Fatalf("-fail run exit = %d, want 1\nstdout:\n%s", code, out.String())
	}
}

// A wide enough tolerance turns the 3x Iterate regression into a pass
// even under -fail; a tight one also trips the mild workers=1 drift.
func TestRunToleranceBounds(t *testing.T) {
	path := writeBaseline(t)

	var out strings.Builder
	code := run([]string{"-baseline", path, "-fail", "-tolerance", "4.0"},
		strings.NewReader(cannedBench), &out, &out)
	if code != 0 {
		t.Fatalf("tolerance 4.0 exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("tolerance 4.0 report missing success line:\n%s", out.String())
	}

	out.Reset()
	code = run([]string{"-baseline", path, "-fail", "-tolerance", "1.01"},
		strings.NewReader(cannedBench), &out, &out)
	if code != 1 {
		t.Fatalf("tolerance 1.01 exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "3 regression(s)") {
		t.Errorf("tolerance 1.01 should flag all three recorded benchmarks:\n%s", out.String())
	}
}

func TestRunBadInvocations(t *testing.T) {
	path := writeBaseline(t)
	cases := []struct {
		name  string
		args  []string
		stdin string
	}{
		{"missing baseline flag", nil, cannedBench},
		{"nonexistent baseline", []string{"-baseline", "does-not-exist.json"}, cannedBench},
		{"zero tolerance", []string{"-baseline", path, "-tolerance", "0"}, cannedBench},
		{"empty input", []string{"-baseline", path}, "no bench lines here\n"},
	}
	for _, tc := range cases {
		var out strings.Builder
		if code := run(tc.args, strings.NewReader(tc.stdin), &out, &out); code != 2 {
			t.Errorf("%s: exit = %d, want 2\n%s", tc.name, code, out.String())
		}
	}
}

// allocsBench is -benchmem output whose ns/op all match allocsBaseline,
// so only the allocation counts can regress.
const allocsBench = `BenchmarkZero-2      100   1000 ns/op   0 B/op   2 allocs/op
BenchmarkSome-2      100   1000 ns/op   4096 B/op   25 allocs/op
BenchmarkNoMem-2     100   1000 ns/op
BenchmarkFree-2      100   1000 ns/op   64 B/op   7 allocs/op
`

const allocsBaseline = `{
  "suite": "allocs",
  "benchmarks": [
    {"name": "BenchmarkZero", "ns_per_op": 1000, "allocs_per_op": 0},
    {"name": "BenchmarkSome", "ns_per_op": 1000, "allocs_per_op": 10},
    {"name": "BenchmarkNoMem", "ns_per_op": 1000, "allocs_per_op": 0},
    {"name": "BenchmarkFree", "ns_per_op": 1000}
  ]
}`

// TestRunAllocsGate: allocs/op is gated at the same tolerance as ns/op,
// against max(baseline, 1), wherever the baseline records it and the
// input measured it. Zero's 2 allocations against a recorded 0 sit
// exactly at 2.0x; Some's 25 against 10 are 2.5x; NoMem was run
// without -benchmem and Free records no allocation count, so neither
// is gated.
func TestRunAllocsGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allocs.json")
	if err := os.WriteFile(path, []byte(allocsBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tolerance   string
		code        int
		regressions string
	}{
		{"3.0", 0, ""},
		{"2.0", 1, "1 regression(s)"},
		{"1.5", 1, "2 regression(s)"},
	}
	for _, tc := range cases {
		var out strings.Builder
		code := run([]string{"-baseline", path, "-fail", "-tolerance", tc.tolerance},
			strings.NewReader(allocsBench), &out, &out)
		report := out.String()
		if code != tc.code {
			t.Fatalf("tolerance %s: exit = %d, want %d\n%s", tc.tolerance, code, tc.code, report)
		}
		if tc.regressions != "" && !strings.Contains(report, tc.regressions) {
			t.Errorf("tolerance %s: report missing %q:\n%s", tc.tolerance, tc.regressions, report)
		}
		for _, want := range []string{
			"BenchmarkSome", "25 allocs/op", "ratio 2.50x",
			"BenchmarkNoMem", "allocs/op not measured",
		} {
			if !strings.Contains(report, want) {
				t.Errorf("tolerance %s: report missing %q:\n%s", tc.tolerance, want, report)
			}
		}
		if strings.Contains(report, "BenchmarkFree") && strings.Contains(report, "7 allocs/op") {
			t.Errorf("tolerance %s: BenchmarkFree records no allocs_per_op but was gated:\n%s", tc.tolerance, report)
		}
	}
}
