package floc

import (
	"context"
	"testing"
)

// BenchmarkRecluster measures the deltastream payoff on the
// equivalence suite's planted workload: after a small delta (one
// appended row, one update, one retraction on a 200×18 matrix), how
// much does warm-starting from the parent's final checkpoint save
// over reclustering cold? cold is the full discovery run on the
// mutated matrix; warm re-anchors the parent's converged memberships
// and pays only the corrective iterations. The ratio between the two
// legs is the feature's reason to exist — BENCH_stream.json records
// both so CI catches either leg regressing.
func BenchmarkRecluster(b *testing.B) {
	cfg := warmTestConfig(1)

	parent := warmTestMatrix(b, 1)
	parentRows := parent.Rows()
	res, err := RunWithOptions(context.Background(), parent, cfg, RunOptions{KeepFinalCheckpoint: true})
	if err != nil {
		b.Fatal(err)
	}
	ck := res.FinalCheckpoint

	mutated := warmTestMatrix(b, 1)
	plantDelta(b, mutated)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(mutated, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts := RunOptions{WarmStart: &WarmStart{Checkpoint: ck, ParentRows: parentRows}}
			if _, err := RunWithOptions(context.Background(), mutated, cfg, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
