package floc

import "deltacluster/internal/cluster"

// polish runs a final cleanup pass over each cluster: repeatedly
// perform the single member *removal* with the largest positive gain
// until no removal improves the cluster's cost. Phase 2 services each
// row/column with only one action per iteration across all k clusters,
// so when the algorithm terminates, low-priority clusters can still
// carry members that a few more dedicated actions would shed; the
// polish pass finishes that work at O(rounds·(n+m)·n·m) per cluster.
// Removals honor the size floor and the coverage constraints, so a
// polished clustering satisfies everything the unpolished one did.
//
// This pass is an engineering extension over the paper's algorithm
// (enabled by Config.Polish); it only ever removes members, never
// grows a cluster, and it cannot increase any cluster's cost.
func (e *engine) polish() {
	for c := range e.clusters {
		e.polishCluster(c)
	}
}

// polishCluster scores every admissible removal from cluster c — its
// rows, then its columns, in ascending order — through decideCluster,
// which batches the row removals, and applies the first one with the
// largest positive gain, until none remains.
func (e *engine) polishCluster(c int) {
	cl := e.clusters[c]
	cons := &e.cfg.Constraints
	for {
		cands := e.polishCands[:0]
		if cl.NumRows() > cons.MinRows {
			for _, i := range cl.Rows() {
				if cons.RequireRowCoverage && e.coverRow[i] <= 1 {
					continue
				}
				cands = append(cands, decision{isRow: true, idx: i, clusterIdx: -1, gain: negInf})
			}
		}
		if cl.NumCols() > cons.MinCols {
			for _, j := range cl.Cols() {
				if cons.RequireColCoverage && e.coverCol[j] <= 1 {
					continue
				}
				cands = append(cands, decision{isRow: false, idx: j, clusterIdx: -1, gain: negInf})
			}
		}
		e.polishCands = cands
		e.decideCluster(c, cands)
		best, bestGain := -1, 0.0
		for t, d := range cands {
			if d.gain > bestGain {
				best, bestGain = t, d.gain
			}
		}
		if best < 0 {
			return
		}
		e.apply(cands[best].isRow, cands[best].idx, c)
	}
}

// Significant filters a clustering to the clusters that carry real
// evidence of coherence: at least 3 rows and 3 columns (below that the
// additive model fits any data exactly or nearly so) and residue at or
// below maxResidue (δ). FLOC always maintains k clusters, so seeds
// that never locked onto a coherent region terminate as residue-heavy
// leftovers; reporting typically wants them dropped.
func Significant(clusters []*cluster.Cluster, maxResidue float64) []*cluster.Cluster {
	out := make([]*cluster.Cluster, 0, len(clusters))
	for _, cl := range clusters {
		if cl.NumRows() < 3 || cl.NumCols() < 3 {
			continue
		}
		if cl.Residue() > maxResidue {
			continue
		}
		out = append(out, cl)
	}
	return out
}
