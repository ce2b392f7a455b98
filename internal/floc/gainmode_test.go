package floc

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
)

// The gain-mode differential suite: GainIncremental replaces the
// decide phase's exact O(volume) rescans with aggregate arithmetic
// over delta-maintained residue masses. The suite proves the three
// claims that make the tier shippable:
//
//  1. Exact mode is untouched — the seed goldens replay bit-for-bit
//     with GainMode set explicitly (and TestGoldenKernelFingerprints
//     keeps pinning the default).
//  2. Incremental mode is deterministic: bit-identical fingerprints,
//     progress traces and checkpoint bytes across worker counts.
//  3. Incremental mode's estimates stay inside stated bounds: per
//     action against the exact gain (gainModeActionEpsilon), per run
//     against the exact run's final objective
//     (gainModeResidueSlack), across planted and noise corpora.
//
// CI's gain-mode-matrix leg reruns this file under
// FLOC_GAIN_MODE × FLOC_WORKERS (see envGainMode).

// envGainMode reads the FLOC_GAIN_MODE environment variable — the CI
// matrix knob for running the pipeline tests in this file under a
// fixed scoring tier. Unlike FLOC_WORKERS, it is consumed ONLY by
// this suite: applying it globally would flip exact-mode golden and
// differential tests into a different engine and void what they pin.
func envGainMode(t testing.TB) (GainMode, bool) {
	t.Helper()
	switch v := os.Getenv("FLOC_GAIN_MODE"); v {
	case "":
		return GainExact, false
	case "exact":
		return GainExact, true
	case "incremental":
		return GainIncremental, true
	default:
		t.Fatalf("FLOC_GAIN_MODE = %q, want exact | incremental", v)
		return GainExact, false
	}
}

// gainModeActionEpsilon bounds the relative error of one incremental
// gain estimate against the exact gain for the same action, measured
// at an anchored state (masses freshly refreshed — the only states the
// engine scores from, since every applied action re-anchors). The
// estimator shares approximateGain's convention: it scores the toggled
// item's own entries under the cluster's current bases and ignores the
// base shift induced on the remaining entries, so the error scales
// with how far a toggle moves the bases — and under SquaredMean the
// squaring amplifies that error further. The constant is an empirical
// envelope over the corpus below (worst observed ≈ 1.9, on the
// SquaredMean case) with ~2x headroom; a
// regression that widens the estimator's error (or breaks its
// re-anchoring) trips it. It is a ranking estimator's envelope, not a
// precision claim: the exact kernel rescores every applied action.
const gainModeActionEpsilon = 4.0

// gainModeResidueSlack bounds the end-to-end objective: the
// incremental run's final average residue may exceed the exact run's
// by at most this factor (plus an absolute floor for near-zero
// objectives). Incremental ranking explores a different action
// sequence, so per-run outcomes differ — on many workloads it lands
// *below* exact — but it must stay in the same quality regime.
const (
	gainModeResidueSlack = 1.5
	gainModeResidueFloor = 0.25
)

// gainModeCase is one cell of the differential corpus.
type gainModeCase struct {
	name string
	m    func(t *testing.T) *matrix.Matrix
	cfg  func() Config
}

// gainModeCases spans planted structure vs pure noise, dense vs
// missing-ridden data, both means and every action order.
func gainModeCases() []gainModeCase {
	base := func(k int, delta float64, order Order) Config {
		cfg := DefaultConfig(k, delta)
		cfg.SeedMode = SeedRandom
		cfg.Order = order
		cfg.Workers = 1
		cfg.Seed = 71
		return cfg
	}
	return []gainModeCase{
		{
			name: "planted/dense/fixed",
			m:    func(t *testing.T) *matrix.Matrix { return plantedMissingMatrix(t, 42, 120, 18, 3, 70, 0) },
			cfg:  func() Config { return base(3, 10, FixedOrder) },
		},
		{
			name: "planted/missing/random",
			m:    func(t *testing.T) *matrix.Matrix { return plantedMissingMatrix(t, 43, 120, 18, 3, 70, 0.15) },
			cfg:  func() Config { return base(3, 10, RandomOrder) },
		},
		{
			name: "planted/missing/weighted/squared",
			m:    func(t *testing.T) *matrix.Matrix { return plantedMissingMatrix(t, 44, 150, 24, 4, 90, 0.1) },
			cfg: func() Config {
				cfg := base(4, 30, WeightedRandomOrder)
				cfg.ResidueMean = cluster.SquaredMean
				return cfg
			},
		},
		{
			name: "noise/missing/fixed",
			m:    func(t *testing.T) *matrix.Matrix { return noiseMatrix(t, 45, 90, 20, 0.2) },
			cfg:  func() Config { return base(3, 5, FixedOrder) },
		},
		{
			name: "noise/dense/random",
			m:    func(t *testing.T) *matrix.Matrix { return noiseMatrix(t, 46, 80, 16, 0) },
			cfg:  func() Config { return base(2, 5, RandomOrder) },
		},
	}
}

// TestGainModeExactGoldenUnchanged replays one recorded golden case
// with GainMode set to GainExact explicitly and asserts the hashes
// still match the seed recording: introducing the incremental tier
// must not perturb a single exact-mode output bit, spelled out or
// defaulted.
func TestGainModeExactGoldenUnchanged(t *testing.T) {
	golden := readGoldenFile(t)
	gc := golden.Cases[0]
	var order Order
	switch gc.Order {
	case "fixed":
		order = FixedOrder
	case "random":
		order = RandomOrder
	case "weighted":
		order = WeightedRandomOrder
	}
	m := plantedMissingMatrix(t, 42, 120, 18, 3, 70, gc.Missing)
	cfg := goldenConfig(order)
	cfg.Seed = gc.Seed
	cfg.GainMode = GainExact
	cap := captureRun(t, m, cfg)
	fp, progress, _ := hashCapture(cap)
	if fp != gc.Fingerprint {
		t.Fatalf("explicit GainMode=exact diverged from the seed golden fingerprint\ngot\n%s", cap.fp)
	}
	if progress != gc.Progress {
		t.Fatal("explicit GainMode=exact diverged from the seed golden progress trace")
	}
}

// TestGainModeIncrementalWorkerDeterminism is claim 2: under
// GainIncremental, every worker count must reproduce the serial run's
// fingerprint, progress trace and checkpoint bytes exactly. The decide
// shadows read the engine's clusters, residue masses included, in
// place, and the estimator reads only anchored pre-toggle state, so
// sharding must not change a bit.
func TestGainModeIncrementalWorkerDeterminism(t *testing.T) {
	for _, tc := range gainModeCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m := tc.m(t)
			cfg := tc.cfg()
			cfg.GainMode = GainIncremental
			serial := captureRun(t, m, cfg)
			for _, w := range diffWorkerCounts(t) {
				cfg.Workers = w
				assertCapturesEqual(t, serial, captureRun(t, m, cfg), w)
			}
		})
	}
}

// TestGainModeBoundedResidueDrift is claim 3's end-to-end half: across
// the corpus, the incremental run's final objective stays within
// gainModeResidueSlack of the exact run's.
func TestGainModeBoundedResidueDrift(t *testing.T) {
	for _, tc := range gainModeCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m := tc.m(t)
			exactCfg := tc.cfg()
			incrCfg := tc.cfg()
			incrCfg.GainMode = GainIncremental
			exact, err := Run(m, exactCfg)
			if err != nil {
				t.Fatal(err)
			}
			incr, err := Run(m, incrCfg)
			if err != nil {
				t.Fatal(err)
			}
			bound := gainModeResidueSlack*exact.AvgResidue + gainModeResidueFloor
			t.Logf("exact %.6f incremental %.6f (bound %.6f)", exact.AvgResidue, incr.AvgResidue, bound)
			if incr.AvgResidue > bound {
				t.Fatalf("incremental objective %.6f exceeds bound %.6f (exact %.6f)",
					incr.AvgResidue, bound, exact.AvgResidue)
			}
		})
	}
}

// gainDriftWorst records the single worst exact-vs-incremental action
// seen by the per-action drift sweep, so the failure message can name
// it precisely.
type gainDriftWorst struct {
	err          float64
	tc           string
	cluster, idx int
	isRow        bool
	incr, exact  float64
}

// TestGainModePerActionDrift is claim 3's per-action half, the
// bounded-drift satellite: at anchored states drawn from real runs,
// every candidate action's incremental gain must stay within
// gainModeActionEpsilon of the exact gain (relative to the gain
// scale), and within float round-off of approximateGain — the two
// tiers share the same estimator convention, differing only in where
// the mass term comes from. Failure prints the worst (cluster,
// action).
func TestGainModePerActionDrift(t *testing.T) {
	var w gainDriftWorst
	for _, tc := range gainModeCases() {
		m := tc.m(t)

		// Anchored mid-run states: the final clustering of a short
		// exact run, which newBareEngine rebuilds with fresh caches
		// (and, for the incremental engine, freshly refreshed masses).
		cfg := tc.cfg()
		cfg.MaxIterations = 2
		res, err := Run(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]cluster.Spec, len(res.Clusters))
		for c, cl := range res.Clusters {
			specs[c] = cl.Spec()
		}

		exactCfg := tc.cfg()
		eExact := newBareEngine(t, m, exactCfg, specs)
		incrCfg := tc.cfg()
		incrCfg.GainMode = GainIncremental
		eIncr := newBareEngine(t, m, incrCfg, specs)
		approxCfg := tc.cfg()
		approxCfg.ApproximateGain = true
		eApprox := newBareEngine(t, m, approxCfg, specs)
		for _, cl := range eIncr.clusters {
			cl.EnableResidueAggregates(incrCfg.ResidueMean)
		}

		check := func(isRow bool, idx, c int) {
			t.Helper()
			gExact := eExact.evalAction(isRow, idx, c)
			gIncr := eIncr.evalAction(isRow, idx, c)
			gApprox := eApprox.evalAction(isRow, idx, c)
			if math.IsInf(gExact, -1) || math.IsInf(gIncr, -1) || math.IsInf(gApprox, -1) {
				// The three engines share constraint state, so blocking
				// must agree exactly.
				if !(math.IsInf(gExact, -1) && math.IsInf(gIncr, -1) && math.IsInf(gApprox, -1)) {
					t.Fatalf("case %s cluster %d %s %d: blocking disagrees (exact %v incremental %v approx %v)",
						tc.name, c, axisName(isRow), idx, gExact, gIncr, gApprox)
				}
				return
			}
			// Same convention, anchored mass: incremental must agree
			// with approximateGain to round-off.
			if diff := math.Abs(gIncr - gApprox); diff > 1e-9*(1+math.Abs(gApprox)) {
				t.Fatalf("case %s cluster %d %s %d: incremental %.12g vs approximate %.12g — estimator conventions diverged",
					tc.name, c, axisName(isRow), idx, gIncr, gApprox)
			}
			relErr := math.Abs(gIncr-gExact) / (1 + math.Abs(gExact))
			if relErr > w.err {
				w = gainDriftWorst{err: relErr, tc: tc.name, cluster: c, idx: idx, isRow: isRow, incr: gIncr, exact: gExact}
			}
		}
		for c := range specs {
			for i := 0; i < m.Rows(); i++ {
				check(true, i, c)
			}
			for j := 0; j < m.Cols(); j++ {
				check(false, j, c)
			}
		}
	}
	t.Logf("worst per-action drift: %.4f (case %s cluster %d %s %d: incremental %.6f exact %.6f)",
		w.err, w.tc, w.cluster, axisName(w.isRow), w.idx, w.incr, w.exact)
	if w.err > gainModeActionEpsilon {
		t.Fatalf("per-action drift %.4f exceeds epsilon %.2f: case %s cluster %d %s %d (incremental %.6f, exact %.6f)",
			w.err, gainModeActionEpsilon, w.tc, w.cluster, axisName(w.isRow), w.idx, w.incr, w.exact)
	}
}

func axisName(isRow bool) string {
	if isRow {
		return "row"
	}
	return "col"
}

// TestGainModeCheckpointCrossResume: GainMode is excluded from the
// checkpoint's configSum (like Workers), because checkpoints are cut
// at iteration boundaries where the masses are refresh-exact — either
// mode's boundary state is a valid starting point for the other. A
// checkpoint written by an exact run must resume under incremental
// ranking and vice versa, and same-mode resume must stay bit-identical
// to the uninterrupted run.
func TestGainModeCheckpointCrossResume(t *testing.T) {
	m := plantedMissingMatrix(t, 42, 120, 18, 3, 70, 0.15)
	exactCfg := DefaultConfig(3, 10)
	exactCfg.SeedMode = SeedRandom
	exactCfg.Seed = 71
	exactCfg.Workers = 1
	incrCfg := exactCfg
	incrCfg.GainMode = GainIncremental

	exactFull, exactCks := captureCheckpoints(t, m, exactCfg)
	incrFull, incrCks := captureCheckpoints(t, m, incrCfg)
	if len(exactCks) == 0 || len(incrCks) == 0 {
		t.Fatal("runs produced no checkpoints; pick another seed")
	}

	// Same-mode resume: bit-identical to the uninterrupted run.
	resumed, err := RunWithOptions(context.Background(), m, incrCfg, RunOptions{Resume: incrCks[0]})
	if err != nil {
		t.Fatalf("incremental resume: %v", err)
	}
	if fingerprint(resumed) != fingerprint(incrFull) {
		t.Fatal("incremental-mode resume diverged from the uninterrupted incremental run")
	}

	// Cross-mode resume in both directions: accepted, and finishing in
	// the same quality regime as the target mode's own run.
	crossIncr, err := RunWithOptions(context.Background(), m, incrCfg, RunOptions{Resume: exactCks[len(exactCks)-1]})
	if err != nil {
		t.Fatalf("resuming an exact checkpoint under incremental ranking: %v", err)
	}
	crossExact, err := RunWithOptions(context.Background(), m, exactCfg, RunOptions{Resume: incrCks[len(incrCks)-1]})
	if err != nil {
		t.Fatalf("resuming an incremental checkpoint under exact ranking: %v", err)
	}
	for _, probe := range []struct {
		name string
		got  *Result
		ref  *Result
	}{
		{"exact→incremental", crossIncr, incrFull},
		{"incremental→exact", crossExact, exactFull},
	} {
		bound := gainModeResidueSlack*probe.ref.AvgResidue + gainModeResidueFloor
		if probe.got.AvgResidue > bound {
			t.Fatalf("%s resume finished at %.6f, outside bound %.6f", probe.name, probe.got.AvgResidue, bound)
		}
	}
}

// TestGainModeEnvPipeline is the test CI's gain-mode-matrix leg
// drives: a full pipeline in the FLOC_GAIN_MODE-selected tier (default
// incremental, the tier otherwise untouched by env sweeps) at the
// FLOC_WORKERS-selected worker count, asserting run-to-run bit
// determinism. Under -tags deltadebug it additionally proves every
// mass the run maintains against the from-scratch oracle.
func TestGainModeEnvPipeline(t *testing.T) {
	mode, ok := envGainMode(t)
	if !ok {
		mode = GainIncremental
	}
	m := plantedMissingMatrix(t, 42, 120, 18, 3, 70, 0.15)
	cfg := DefaultConfig(3, 10)
	cfg.SeedMode = SeedRandom
	cfg.Seed = 71
	cfg.GainMode = mode
	applyEnvWorkers(t, &cfg)
	first := captureRun(t, m, cfg)
	second := captureRun(t, m, cfg)
	assertCapturesEqual(t, first, second, cfg.Workers)
}

// readGoldenFile loads the recorded golden cases (shared with
// golden_test.go's harness).
func readGoldenFile(t *testing.T) goldenFile {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var golden goldenFile
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(golden.Cases) == 0 {
		t.Fatal("golden file has no cases")
	}
	return golden
}
