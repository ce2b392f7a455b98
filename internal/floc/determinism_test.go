package floc

import (
	"fmt"
	"strings"
	"testing"

	"deltacluster/internal/synth"
)

// fingerprint serializes everything about a Result that the
// determinism guarantee covers — cluster membership, objective,
// counters and the per-iteration residue trace. Duration is wall
// clock and deliberately excluded.
func fingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "avg=%.17g iter=%d actions=%d gains=%d\n",
		res.AvgResidue, res.Iterations, res.ActionsApplied, res.GainEvaluations)
	for _, r := range res.ResidueTrace {
		fmt.Fprintf(&b, "trace %.17g\n", r)
	}
	for c, cl := range res.Clusters {
		fmt.Fprintf(&b, "cluster %d rows=%v cols=%v residue=%.17g\n",
			c, cl.Rows(), cl.Cols(), cl.Residue())
	}
	return b.String()
}

// TestRunDeterministicFingerprint is the determinism regression
// test: FLOC runs with the same seed over the same matrix must be
// bit-identical in every reported quantity — membership, residues to
// the last ulp, counters, trace — for every action-ordering strategy.
// (TestRunDeterministic in floc_test.go checks the headline numbers;
// this one pins the whole result.) The deltavet maporder/seededrand
// passes enforce the property statically; this test enforces it end
// to end.
func TestRunDeterministicFingerprint(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Rows: 120, Cols: 18, NumClusters: 3,
		VolumeMean: 70, VolumeVariance: 0, RowColRatio: 5,
		TargetResidue: 4,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []Order{FixedOrder, RandomOrder, WeightedRandomOrder} {
		order := order
		t.Run(fmt.Sprintf("order=%v", order), func(t *testing.T) {
			cfg := DefaultConfig(3, 10)
			cfg.Seed = 7
			cfg.Order = order
			applyEnvWorkers(t, &cfg) // CI sweeps FLOC_WORKERS=1,2,8
			first, err := Run(ds.Matrix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(first)
			for rerun := 0; rerun < 2; rerun++ {
				res, err := Run(ds.Matrix, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(res); got != want {
					t.Fatalf("rerun %d diverged from first run with identical seed:\n--- first\n%s--- rerun\n%s",
						rerun, want, got)
				}
			}
		})
	}
}
