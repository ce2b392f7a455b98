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
// Two regimes, chosen automatically:
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
type WarmStart struct {
	// Checkpoint is the parent run's final iteration boundary
	// (Result.FinalCheckpoint of a run with KeepFinalCheckpoint, or
	// any periodic checkpoint). The configuration must match the
	// parent's — Seed included — exactly as for Resume.
	Checkpoint *Checkpoint

	// ParentRows is the row count the parent matrix had when the
	// checkpoint was cut. Rows at index ≥ ParentRows are the appended
	// delta and get best-residue placement. 0 means the matrix has not
	// grown (a pure update/retraction delta): all rows are parent
	// rows.
	ParentRows int
}

// warmStartEngine builds an engine whose clusters are the parent
// checkpoint's memberships re-anchored on the mutated matrix m, with
// appended rows placed by best-residue probe. It initializes the
// guarded residue/cost caches with the same wholesale per-cluster
// rebuild iterate() runs at a boundary (deltavet:writer), so phase 2
// starts from boundary-normalized state exactly as a cold run starts
// from seeding.
func warmStartEngine(m *matrix.Matrix, cfg *Config, ws *WarmStart, msum uint64) (*engine, error) {
	ck := ws.Checkpoint
	if got := configSum(cfg); ck.ConfigSum != got {
		return nil, fmt.Errorf("floc: warm-start checkpoint was written under a different configuration (sum %016x, want %016x)", ck.ConfigSum, got)
	}
	if len(ck.Clusters) != cfg.K {
		return nil, fmt.Errorf("floc: warm-start checkpoint has %d clusters, configuration wants %d", len(ck.Clusters), cfg.K)
	}
	parentRows := ws.ParentRows
	if parentRows == 0 {
		parentRows = m.Rows()
	}
	if parentRows < 0 || parentRows > m.Rows() {
		return nil, fmt.Errorf("floc: warm start claims %d parent rows, matrix has %d", parentRows, m.Rows())
	}
	for c, cs := range ck.Clusters {
		for _, i := range cs.Rows {
			if i < 0 || i >= parentRows {
				return nil, fmt.Errorf("floc: warm-start cluster %d references row %d beyond the %d parent rows", c, i, parentRows)
			}
		}
		for _, j := range cs.Cols {
			if j < 0 || j >= m.Cols() {
				return nil, fmt.Errorf("floc: warm-start cluster %d references column %d of a %d-column matrix", c, j, m.Cols())
			}
		}
	}

	// The RNG continues the parent's counted stream at the boundary
	// position, the same convention as resume: when the delta turns
	// out to be empty the trajectory is the cold run's, and when it is
	// not, the stream position is still a pure function of the
	// checkpoint — never of the delta — so the warm trajectory is
	// reproducible at any worker count.
	e := &engine{
		m:        m,
		cfg:      cfg,
		rng:      stats.NewRNGAt(ck.Seed, ck.Draws),
		coverRow: make([]int, m.Rows()),
		coverCol: make([]int, m.Cols()),
		mSum:     msum,
		mSumSet:  true,
	}
	e.w = float64(m.SpecifiedCount())

	// Same discipline as newEngine/resumeEngine: freeze the derived
	// matrix caches from this goroutine before decide workers share
	// the matrix. FromOrdered re-accumulates every aggregate from the
	// mutated entries in the parent's insertion order, and EnablePack
	// re-caches each touched cluster's evaluation pack against the new
	// matrix — nothing from the parent's floats survives, only its
	// memberships.
	m.EnsureDerived()
	e.clusters = make([]*cluster.Cluster, cfg.K)
	for c := range ck.Clusters {
		cl, err := cluster.FromOrdered(m, ck.Clusters[c].Rows, ck.Clusters[c].Cols)
		if err != nil {
			return nil, fmt.Errorf("floc: warm-start cluster %d: %w", c, err)
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
	// cluster it stays unassigned and phase 2 may still adopt it.
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

	// Boundary normalization: wholesale Recompute (which re-caches the
	// evaluation-pack bases) and guarded-cache rebuild, the same loop
	// iterate() runs at every boundary (deltavet:writer).
	e.residues = make([]float64, cfg.K)
	e.costs = make([]float64, cfg.K)
	for c, cl := range e.clusters {
		cl.Recompute()
		e.residues[c] = cl.Residue()
		e.resSum += e.residues[c]
		e.costs[c] = e.cost(e.residues[c], cl.Volume(), cl.NumRows(), cl.NumCols())
		e.costSum += e.costs[c]
		for _, i := range cl.Rows() {
			e.coverRow[i]++
		}
		for _, j := range cl.Cols() {
			e.coverCol[j]++
		}
	}
	if debugInvariants {
		e.assertInvariants("warm start")
	}
	return e, nil
}
