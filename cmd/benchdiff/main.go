// Command benchdiff compares a fresh `go test -bench` run against a
// recorded baseline (BENCH_floc.json, BENCH_service.json, ...) and
// reports every benchmark's ratio to its recorded ns/op and, where the
// baseline records allocs_per_op, to its recorded allocs/op.
//
// Usage:
//
//	go test -run XXX -bench BenchmarkDecideAll ./internal/floc/ | benchdiff -baseline BENCH_floc.json
//	benchdiff -baseline BENCH_floc.json -input bench.out -tolerance 1.5 -fail
//
// The comparison is on ns/op, plus allocs/op for every baseline entry
// that records allocs_per_op and every input line that carries an
// allocs/op column (go test -benchmem). Allocation counts are compared
// as max(current, 1) / max(baseline, 1), so a zero-allocation
// benchmark may reach the tolerance's worth of allocations — 2 at
// -tolerance 2.0 — before it fails, and 0 against 0 reads as 1.00x.
// Benchmark names are matched after stripping the -GOMAXPROCS suffix
// go test appends on multi-core machines, so a baseline recorded at
// one core count checks runs at any other. Baseline entries absent
// from the input are reported but never fail the run (partial -bench
// filters are normal); input benchmarks absent from the baseline are
// listed as unrecorded.
//
// By default the tool is advisory: it prints the comparison and exits
// zero regardless. With -fail it exits 1 when any benchmark regresses
// beyond -tolerance, which is how CI gates the hot path. Benchmark
// timings on shared CI runners are noisy, so the default tolerance is
// generous (+30%) — the gate's job is to catch order-of-magnitude
// regressions (an accidentally quadratic decide phase, a lock on the
// hot path, an allocation per candidate), not 5% drift.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
)

type baseline struct {
	Suite      string `json:"suite"`
	Command    string `json:"command"`
	Recorded   string `json:"recorded"`
	Note       string `json:"note,omitempty"`
	Benchmarks []struct {
		Name        string   `json:"name"`
		NsPerOp     float64  `json:"ns_per_op"`
		AllocsPerOp *float64 `json:"allocs_per_op"` // nil: not recorded, not gated
	} `json:"benchmarks"`
}

// result is one benchmark's figures from the input; allocs is
// meaningful only when hasAllocs is set.
type result struct {
	ns        float64
	allocs    float64
	hasAllocs bool
}

// benchLine matches go test -bench output:
//
//	BenchmarkDecideAll/workers=2-8   918   3851067 ns/op   166448 B/op   113 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// allocsColumn finds the allocs/op column -benchmem appends.
var allocsColumn = regexp.MustCompile(`\s([0-9.]+) allocs/op`)

// procSuffix is the -GOMAXPROCS suffix appended on multi-core runs.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its edges injected, so the unit tests can drive the
// whole tool — flag parsing to exit code — on canned input.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "recorded baseline JSON (required)")
	inputPath := fs.String("input", "-", "bench output to check ('-' = stdin)")
	tolerance := fs.Float64("tolerance", 1.30, "max allowed ratio current/baseline, for ns/op and allocs/op")
	failOnRegression := fs.Bool("fail", false, "exit non-zero on regression (default: advisory report only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baselinePath == "" {
		fmt.Fprintln(stderr, "benchdiff: -baseline is required")
		fs.Usage()
		return 2
	}
	if *tolerance <= 0 {
		fmt.Fprintf(stderr, "benchdiff: tolerance %v, want > 0\n", *tolerance)
		return 2
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(stderr, "benchdiff: %s: %v\n", *baselinePath, err)
		return 2
	}

	in := stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	current, order, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(current) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no benchmark lines in input")
		return 2
	}

	fmt.Fprintf(stdout, "baseline %s (%s, recorded %s), tolerance %.2fx\n",
		*baselinePath, base.Suite, base.Recorded, *tolerance)
	regressions := diff(base, current, order, *tolerance, stdout)
	if regressions > 0 {
		fmt.Fprintf(stdout, "benchdiff: %d regression(s) beyond %.2fx\n", regressions, *tolerance)
		if *failOnRegression {
			return 1
		}
		fmt.Fprintln(stdout, "benchdiff: advisory mode (-fail not set), not failing")
		return 0
	}
	fmt.Fprintln(stdout, "benchdiff: no regressions")
	return 0
}

// diff writes the per-benchmark comparison to out and returns how many
// comparisons regressed beyond tolerance: one per benchmark for ns/op,
// and one more where allocs/op is both recorded and measured.
func diff(base baseline, current map[string]result, order []string, tolerance float64, out io.Writer) int {
	recorded := make(map[string]int, len(base.Benchmarks))
	for k, b := range base.Benchmarks {
		recorded[b.Name] = k
	}
	regressions := 0
	verdict := func(ratio float64) string {
		switch {
		case ratio > tolerance:
			regressions++
			return "REGRESSION"
		case ratio < 1/tolerance:
			return "improved"
		}
		return "ok"
	}
	for _, name := range order {
		cur := current[name]
		k, ok := recorded[name]
		if !ok {
			fmt.Fprintf(out, "  %-45s %12.0f ns/op  (not in baseline)\n", name, cur.ns)
			continue
		}
		want := base.Benchmarks[k]
		ratio := cur.ns / want.NsPerOp
		fmt.Fprintf(out, "  %-45s %12.0f ns/op  baseline %12.0f  ratio %.2fx  %s\n",
			name, cur.ns, want.NsPerOp, ratio, verdict(ratio))
		switch {
		case want.AllocsPerOp == nil:
		case !cur.hasAllocs:
			fmt.Fprintf(out, "  %-45s allocs/op not measured (run with -benchmem)\n", name)
		default:
			ratio := math.Max(cur.allocs, 1) / math.Max(*want.AllocsPerOp, 1)
			fmt.Fprintf(out, "  %-45s %12.0f allocs/op  baseline %8.0f  ratio %.2fx  %s\n",
				name, cur.allocs, *want.AllocsPerOp, ratio, verdict(ratio))
		}
	}
	for _, b := range base.Benchmarks {
		if _, ok := current[b.Name]; !ok {
			fmt.Fprintf(out, "  %-45s (in baseline, not run)\n", b.Name)
		}
	}
	return regressions
}

// parseBench extracts name → ns/op and, when the line has the column,
// allocs/op from go test -bench output, normalizing away the
// -GOMAXPROCS name suffix. It returns the names in input order so the
// report is stable; a repeated name keeps its last line.
func parseBench(r io.Reader) (map[string]result, []string, error) {
	out := map[string]result{}
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		var res result
		var err error
		if res.ns, err = strconv.ParseFloat(m[2], 64); err != nil {
			return nil, nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		if a := allocsColumn.FindStringSubmatch(line); a != nil {
			if res.allocs, err = strconv.ParseFloat(a[1], 64); err != nil {
				return nil, nil, fmt.Errorf("bad allocs/op in %q: %v", line, err)
			}
			res.hasAllocs = true
		}
		if _, dup := out[name]; !dup {
			order = append(order, name)
		}
		out[name] = res
	}
	return out, order, sc.Err()
}
