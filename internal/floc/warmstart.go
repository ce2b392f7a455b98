package floc

import (
	"fmt"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// WarmStart seeds a run from a parent run's final checkpoint instead
// of phase-1 seeding — the re-convergence half of the deltastream
// subsystem. The intended lifecycle: a run converges on a matrix,
// KeepFinalCheckpoint preserves its final boundary, the matrix then
// mutates (rows appended, cells updated or retracted via the
// internal/stream mutation log), and the next run warm-starts from
// the preserved checkpoint so it pays a few corrective iterations
// instead of a full cold optimization.
//
// Every start from a checkpoint takes one path (see startEngine); the
// regimes differ only in whether the counters and trace carry over:
//
//   - Empty delta (the matrix still fingerprints to the checkpoint's
//     MatrixSum): the warm start IS the checkpoint-resume path, so the
//     run is bit-identical to the uninterrupted cold run — same
//     fingerprint, same trace, same counters — at any worker count.
//   - Dirty delta: the parent's cluster memberships are re-anchored on
//     the mutated matrix (every aggregate and evaluation pack rebuilt
//     from the new entries), rows beyond ParentRows are placed by
//     best-residue probe, and phase 2 runs from there. Iterations and
//     counters restart at zero, so Result.Iterations counts only the
//     corrective work — directly comparable against a cold run on the
//     same mutated matrix.
//   - A seed checkpoint (the parent converged in seeding) holds no
//     memberships: the warm start re-runs seeding on the given matrix,
//     which is the cold run under the parent's seed — the parent's own
//     run when the delta is empty.
type WarmStart struct {
	// Checkpoint is the parent run's final iteration boundary
	// (Result.FinalCheckpoint of a run with KeepFinalCheckpoint, which
	// every run has, or any periodic or partial-run checkpoint). The configuration must match the
	// parent's — Seed included — exactly as for Resume.
	Checkpoint *Checkpoint

	// ParentRows is the row count the parent matrix had when the
	// checkpoint was cut. Rows at index ≥ ParentRows are the appended
	// delta and get best-residue placement. 0 means the matrix has not
	// grown (a pure update/retraction delta): all rows are parent
	// rows.
	ParentRows int
}

// startEngine builds an engine from a checkpoint that holds cluster
// states — the one constructor behind Resume and WarmStart. The
// parent memberships are re-anchored on m, rows at index ≥ parentRows
// are placed by best-residue probe, and every cluster gets the
// wholesale Recompute iterate() runs at a boundary, which is
// idempotent on a resume's bits. carry says that m is the matrix the
// checkpoint was cut on: the counters continue from the checkpoint and
// no row is new. msum is matrixSum(m), kept for the checkpoints the
// run cuts.
func startEngine(m *matrix.Matrix, cfg *Config, ck *Checkpoint, parentRows int, msum uint64, carry bool) (*engine, error) {
	if carry || parentRows == 0 {
		parentRows = m.Rows()
	}
	for c, cs := range ck.Clusters {
		for _, i := range cs.Rows {
			if i < 0 || i >= parentRows {
				return nil, fmt.Errorf("floc: checkpoint cluster %d references row %d beyond the %d parent rows", c, i, parentRows)
			}
		}
		for _, j := range cs.Cols {
			if j < 0 || j >= m.Cols() {
				return nil, fmt.Errorf("floc: checkpoint cluster %d references column %d of a %d-column matrix", c, j, m.Cols())
			}
		}
	}

	// The RNG continues the checkpoint's counted stream at the boundary
	// position. When the delta is empty the trajectory is the
	// uninterrupted run's; when it is not, the stream position is
	// still a pure function of the checkpoint — never of the delta — so
	// the warm trajectory is reproducible at any worker count.
	e := &engine{
		m:        m,
		cfg:      cfg,
		rng:      stats.NewRNGAt(ck.Seed, ck.Draws),
		coverRow: make([]int, m.Rows()),
		coverCol: make([]int, m.Cols()),
		mSum:     msum,
		mSumSet:  true,
	}
	if carry {
		e.gainEvals, e.actions = ck.GainEvals, ck.Actions
	}
	e.w = float64(m.SpecifiedCount())

	// Same discipline as newEngine: freeze the derived matrix caches
	// from this goroutine before decide workers share the matrix.
	// FromOrdered accumulates every aggregate from m's entries in the
	// checkpoint's insertion order, and EnablePack caches each
	// cluster's evaluation pack against m — nothing from the parent's
	// floats survives, only its memberships.
	m.EnsureDerived()
	e.clusters = make([]*cluster.Cluster, cfg.K)
	for c, cs := range ck.Clusters {
		cl, err := cluster.FromOrdered(m, cs.Rows, cs.Cols)
		if err != nil {
			return nil, fmt.Errorf("floc: checkpoint cluster %d: %w", c, err)
		}
		cl.EnablePack()
		e.clusters[c] = cl
	}

	// Best-residue placement of the appended rows, in row order then
	// cluster order — fully deterministic, no RNG draws. Each candidate
	// placement is probed read-only: the toggled-state constraints
	// (volume ceiling, occupancy, overlap budget) and the resulting
	// residue. The row joins the admissible cluster whose residue stays
	// lowest (ties to the lowest cluster index); with no admissible
	// cluster it stays unassigned and phase 2 may still adopt it. The
	// coverage counts are not built yet, and placement never reads
	// them.
	b := &e.probes.one
	for i := parentRows; i < m.Rows(); i++ {
		best := -1
		bestRes := 0.0
		for c, cl := range e.clusters {
			if cl.NumCols() == 0 {
				continue
			}
			b.Load(cl, true, i)
			p := b.Probe(0)
			if e.violatesToggled(p, c) {
				continue
			}
			res := p.Residue()
			e.gainEvals++
			if debugInvariants {
				e.checkProbe(p, c, res, true)
			}
			if best < 0 || res < bestRes {
				best = c
				bestRes = res
			}
		}
		if best >= 0 {
			e.clusters[best].AddRow(i)
			e.actions++
		}
	}

	for _, cl := range e.clusters {
		cl.Recompute()
	}
	e.initCaches("start from checkpoint")
	return e, nil
}
