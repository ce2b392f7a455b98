// Package bicluster implements the biclustering algorithm of Cheng &
// Church ("Biclustering of expression data", ISMB 2000) — reference
// [3] of the δ-cluster paper and its baseline in the microarray
// comparison of Section 6.1.2.
//
// A bicluster is a submatrix whose mean squared residue
//
//	H(I, J) = (1/|I||J|) Σ (d_ij − d_iJ − d_Ij + d_IJ)²
//
// is at most a threshold δ. The algorithm finds one maximal bicluster
// at a time, starting from the whole matrix:
//
//  1. multiple node deletion — repeatedly drop every row (then every
//     column) whose mean squared residue contribution exceeds α·H,
//     while H > δ (only applied while the matrix is large);
//  2. single node deletion — drop the single row or column with the
//     largest contribution until H ≤ δ;
//  3. node addition — add back every row or column whose contribution
//     does not exceed the current H (optionally also inverted rows);
//
// then masks the discovered submatrix with uniform random values and
// repeats for the next bicluster. The masking is what the δ-cluster
// paper criticizes: later biclusters are mined from data polluted by
// the masks of earlier ones, degrading both quality and volume.
//
// The δ-cluster model generalizes this: missing values are permitted
// (this implementation tolerates them, counting specified entries
// only), the residue is the mean |r_ij| rather than the mean r_ij², and FLOC
// maintains all k clusters simultaneously instead of masking.
package bicluster

import (
	"context"
	"fmt"
	"math"
	"time"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// Config parameterizes a Cheng & Church run.
type Config struct {
	// K is the number of biclusters to mine sequentially.
	K int

	// Delta is the mean-squared-residue ceiling δ.
	Delta float64

	// Alpha is the multiple-node-deletion aggressiveness (rows/columns
	// with contribution > Alpha·H are dropped in bulk). Cheng & Church
	// use 1.2; values ≤ 1 disable the bulk phase. Defaults to 1.2.
	Alpha float64

	// MultipleDeletionThreshold is the row (column) count above which
	// the bulk deletion phase is used; below it only single node
	// deletion runs, as in the original paper (100). Defaults to 100.
	MultipleDeletionThreshold int

	// AddInvertedRows also admits rows whose *negated* values fit the
	// bicluster during node addition (the "mirror image" rows of the
	// original paper). Off by default.
	AddInvertedRows bool

	// Seed drives the random masking values.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 1.2
	}
	if c.MultipleDeletionThreshold == 0 {
		c.MultipleDeletionThreshold = 100
	}
}

func (c *Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("bicluster: K = %d, want ≥ 1", c.K)
	}
	if !(c.Delta >= 0) {
		return fmt.Errorf("bicluster: Delta = %v, want ≥ 0", c.Delta)
	}
	if c.Alpha < 0 {
		return fmt.Errorf("bicluster: Alpha = %v, want ≥ 0", c.Alpha)
	}
	return nil
}

// Result reports the outcome of a run. Biclusters reference the
// caller's original matrix (NOT the masked working copy), so their
// residues are measured against real data.
type Result struct {
	Biclusters []*cluster.Cluster
	// Duration is the wall-clock time of the whole run.
	Duration time.Duration
}

// Run mines cfg.K biclusters from m. The input matrix is not
// modified; masking happens on an internal copy.
func Run(m *matrix.Matrix, cfg Config) (*Result, error) {
	return RunContext(context.Background(), m, cfg)
}

// RunContext is Run with cancellation: the context is checked before
// each of the K sequential mines, and a cancelled or expired context
// stops the run with a *PartialResult error carrying the biclusters
// mined so far (each of which is complete and final — later mines
// never revise earlier ones).
func RunContext(ctx context.Context, m *matrix.Matrix, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if m.Rows() == 0 || m.Cols() == 0 {
		return nil, fmt.Errorf("bicluster: matrix is %dx%d", m.Rows(), m.Cols())
	}
	start := time.Now()
	rng := stats.NewRNG(cfg.Seed)
	work := m.Clone()
	lo, hi := dataRange(m)

	res := &Result{}
	for k := 0; k < cfg.K; k++ {
		if err := ctx.Err(); err != nil {
			res.Duration = time.Since(start)
			return nil, newPartialResult(res, err)
		}
		spec := mineOne(work, &cfg)
		if len(spec.Rows) == 0 || len(spec.Cols) == 0 {
			break
		}
		// Report the bicluster against the ORIGINAL data.
		res.Biclusters = append(res.Biclusters, cluster.FromSpec(m, spec.Rows, spec.Cols))
		// Mask the discovered cells with random values so the next
		// round finds something else (the original algorithm's step).
		for _, i := range spec.Rows {
			row := work.MutRow(i)
			for _, j := range spec.Cols {
				row[j] = rng.Uniform(lo, hi)
			}
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}

// mineOne runs deletion and addition phases on the working matrix and
// returns the bicluster's membership.
func mineOne(work *matrix.Matrix, cfg *Config) cluster.Spec {
	cl := cluster.New(work)
	for i := 0; i < work.Rows(); i++ {
		cl.AddRow(i)
	}
	for j := 0; j < work.Cols(); j++ {
		cl.AddCol(j)
	}

	multipleNodeDeletion(cl, cfg)
	singleNodeDeletion(cl, cfg)
	nodeAddition(cl, cfg)
	return cl.Spec()
}

// msr is the mean squared residue H(I, J).
func msr(cl *cluster.Cluster) float64 { return cl.MeanSquaredResidue() }

// rowContribution returns d(i) = mean_j r_ij² over the cluster's
// columns, or 0 when the row has no specified member entries.
func rowContribution(cl *cluster.Cluster, i int) float64 {
	sum, n := 0.0, 0
	for _, j := range cl.Cols() {
		if !cl.Matrix().IsSpecified(i, j) {
			continue
		}
		r := cl.EntryResidue(i, j)
		sum += r * r
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func colContribution(cl *cluster.Cluster, j int) float64 {
	sum, n := 0.0, 0
	for _, i := range cl.Rows() {
		if !cl.Matrix().IsSpecified(i, j) {
			continue
		}
		r := cl.EntryResidue(i, j)
		sum += r * r
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// multipleNodeDeletion is Algorithm 2 of Cheng & Church: bulk-remove
// clearly bad rows/columns while the matrix is large and H > δ.
func multipleNodeDeletion(cl *cluster.Cluster, cfg *Config) {
	if cfg.Alpha <= 1 {
		return
	}
	for {
		h := msr(cl)
		if h <= cfg.Delta {
			return
		}
		changed := false
		if cl.NumRows() > cfg.MultipleDeletionThreshold {
			for _, i := range cl.Rows() {
				if cl.NumRows() <= 2 {
					break
				}
				if rowContribution(cl, i) > cfg.Alpha*h {
					cl.RemoveRow(i)
					changed = true
				}
			}
		}
		h = msr(cl)
		if h <= cfg.Delta {
			return
		}
		if cl.NumCols() > cfg.MultipleDeletionThreshold {
			for _, j := range cl.Cols() {
				if cl.NumCols() <= 2 {
					break
				}
				if colContribution(cl, j) > cfg.Alpha*h {
					cl.RemoveCol(j)
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// singleNodeDeletion is Algorithm 1: remove the single worst row or
// column until H ≤ δ.
func singleNodeDeletion(cl *cluster.Cluster, cfg *Config) {
	for msr(cl) > cfg.Delta {
		worstIsRow := true
		worstIdx := -1
		worst := -1.0
		if cl.NumRows() > 2 {
			for _, i := range cl.Rows() {
				if d := rowContribution(cl, i); d > worst {
					worst = d
					worstIdx = i
					worstIsRow = true
				}
			}
		}
		if cl.NumCols() > 2 {
			for _, j := range cl.Cols() {
				if d := colContribution(cl, j); d > worst {
					worst = d
					worstIdx = j
					worstIsRow = false
				}
			}
		}
		if worstIdx < 0 {
			return // floor reached
		}
		if worstIsRow {
			cl.RemoveRow(worstIdx)
		} else {
			cl.RemoveCol(worstIdx)
		}
	}
}

// nodeAddition is Algorithm 3: add back columns then rows whose
// contribution does not exceed the current H, iterating to a fixed
// point. With AddInvertedRows, a row whose negation fits is also
// added (we track it as a normal member; the caller interprets).
func nodeAddition(cl *cluster.Cluster, cfg *Config) {
	m := cl.Matrix()
	for {
		changed := false
		h := msr(cl)
		for j := 0; j < m.Cols(); j++ {
			if cl.HasCol(j) {
				continue
			}
			if additionColScore(cl, j) <= h {
				cl.AddCol(j)
				changed = true
			}
		}
		h = msr(cl)
		for i := 0; i < m.Rows(); i++ {
			if cl.HasRow(i) {
				continue
			}
			if additionRowScore(cl, i, false) <= h {
				cl.AddRow(i)
				changed = true
				continue
			}
			if cfg.AddInvertedRows && additionRowScore(cl, i, true) <= h {
				cl.AddRow(i)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// additionRowScore computes the mean squared residue row i would
// contribute if added, using the cluster's current bases. With
// inverted=true the row's values are negated and offset by twice the
// cluster base, Cheng & Church's mirror-image test.
func additionRowScore(cl *cluster.Cluster, i int, inverted bool) float64 {
	m := cl.Matrix()
	base := cl.Base()
	if math.IsNaN(base) {
		return math.Inf(1)
	}
	row := m.RowView(i)
	// Row base over the cluster's columns.
	sum, n := 0.0, 0
	for _, j := range cl.Cols() {
		if v := row[j]; !math.IsNaN(v) {
			if inverted {
				v = -v
			}
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	rowBase := sum / float64(n)
	score := 0.0
	for _, j := range cl.Cols() {
		v := row[j]
		if math.IsNaN(v) {
			continue
		}
		if inverted {
			v = -v
		}
		colBase := cl.ColBase(j)
		if math.IsNaN(colBase) {
			colBase = base
		}
		r := v - rowBase - colBase + base
		score += r * r
	}
	return score / float64(n)
}

func additionColScore(cl *cluster.Cluster, j int) float64 {
	m := cl.Matrix()
	base := cl.Base()
	if math.IsNaN(base) {
		return math.Inf(1)
	}
	sum, n := 0.0, 0
	for _, i := range cl.Rows() {
		if v := m.RowView(i)[j]; !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	colBase := sum / float64(n)
	score := 0.0
	for _, i := range cl.Rows() {
		v := m.RowView(i)[j]
		if math.IsNaN(v) {
			continue
		}
		rowBase := cl.RowBase(i)
		if math.IsNaN(rowBase) {
			rowBase = base
		}
		r := v - rowBase - colBase + base
		score += r * r
	}
	return score / float64(n)
}

// dataRange returns the min and max specified values of m, used for
// masking. A constant or empty matrix masks around its value.
func dataRange(m *matrix.Matrix) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.RowView(i) {
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if !(hi > lo) {
		return 0, 1
	}
	return lo, hi
}
