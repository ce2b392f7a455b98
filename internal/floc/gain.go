package floc

import (
	"math"

	"deltacluster/internal/cluster"
)

// Gain evaluation.
//
// Every candidate action — toggling one row or column in one cluster —
// is judged on the state the toggle would produce: whether the
// constraints admit it, and, under the exact tier, the toggled
// residue. None of it toggles anything. A cluster.Probe computes the
// toggled residue, volume, shape, occupancy and overlap from the
// frozen pre-toggle cluster, replaying each mutator's operand order so
// every answer carries the bits a real toggle would (cluster/probe.go).
// An evaluation is therefore a pure function of the engine state, and
// the decide workers read the engine's clusters directly (parallel.go).
//
// admits is the one admission test: the size-floor and coverage
// pre-checks, then violatesToggled on the probe. evalAction adds the
// gain of one tier. decideRange scores a whole range of items cluster
// by cluster; under the exact tier it batches each cluster's row
// insertions four per pass over the cluster's pack. Row insertions are
// where the exact tier's time goes: 91% of the entries scanned on the
// synthetic-iterate benchmark workload.

// decision records the chosen action for one row or column: toggling
// its membership in cluster clusterIdx, expected to change that
// cluster's residue by -gain. clusterIdx is -1 when every one of the
// k candidate actions is blocked by constraints.
type decision struct {
	isRow      bool
	idx        int
	clusterIdx int
	gain       float64
}

// negInf marks blocked actions, per Section 4.3 ("the gain is assigned
// to −∞").
var negInf = math.Inf(-1)

// probeScratch is one evaluator's read-only probe scratch: a probe for
// single evaluations, and a batch of row-insertion probes with the
// decision slot each one serves and its scored residue.
type probeScratch struct {
	one   cluster.Probe
	batch [4]cluster.Probe
	at    [4]int
	res   [4]float64
}

// evalAction returns the gain of toggling item (isRow, idx) in cluster
// c, or −∞ if the action is blocked by the configured constraints.
// Nothing is toggled: the constraint verdict and the exact tier's
// residue come from a read-only probe of the frozen cluster.
//
// deltavet:hotpath — one call per (item, cluster) pair outside the
// decide phase's batches; BenchmarkDecideAll pins the whole chain at 0
// allocs/op.
func (e *engine) evalAction(isRow bool, idx, c int) float64 {
	e.gainEvals++
	p := &e.probes.one
	if !e.admits(p, isRow, idx, c) {
		return negInf
	}
	// Estimator tiers score against the *pre-toggle* state: judging a
	// candidate under the bases it would itself shift is systematically
	// optimistic for insertions (the incoming entries absorb part of
	// their own deviation into the bases they join).
	switch {
	case e.cfg.GainMode == GainIncremental:
		return e.incrementalGain(c, isRow, idx, !p.Inserts())
	case e.cfg.ApproximateGain:
		return e.approximateGain(c, isRow, idx, !p.Inserts())
	}
	res := p.Residue(e.cfg.ResidueMean)
	if debugInvariants {
		e.checkProbe(p, c, res, true)
	}
	return e.exactGain(c, p, res)
}

// exactGain prices the toggle p describes in cluster c, given the
// toggled residue res.
func (e *engine) exactGain(c int, p *cluster.Probe, res float64) float64 {
	return e.costs[c] - e.cost(res, p.Volume(), p.NumRows(), p.NumCols())
}

// admits loads p with toggling item (isRow, idx) in cluster c and
// reports whether the configured constraints allow the toggle: the
// size floor and coverage pre-checks, then the toggled-state checks.
// It is the one admission test of every evaluation and of blockedNow.
func (e *engine) admits(p *cluster.Probe, isRow bool, idx, c int) bool {
	cl := e.clusters[c]
	cons := &e.cfg.Constraints
	// Pre-checks that do not need the toggled state.
	if isRow && cl.HasRow(idx) {
		if cl.NumRows()-1 < cons.MinRows || cons.RequireRowCoverage && e.coverRow[idx] <= 1 {
			return false
		}
	}
	if !isRow && cl.HasCol(idx) {
		if cl.NumCols()-1 < cons.MinCols || cons.RequireColCoverage && e.coverCol[idx] <= 1 {
			return false
		}
	}
	p.Load(cl, isRow, idx)
	if debugInvariants {
		e.checkProbe(p, c, 0, false)
	}
	return !e.violatesToggled(p, c)
}

// incrementalGain scores toggling item (isRow, idx) in cluster c from
// the delta-maintained residue masses (cluster/incremental.go): a
// removal reads the item's recorded share of the mass in O(1); an
// insertion scores the incoming entries against the cluster's current
// bases in O(row)/O(col). The estimator convention matches
// approximateGain — candidates are judged under the *current* bases —
// but the O(volume) mass term comes from the maintained absSum
// instead of an exact rescan, and the masses are re-anchored to exact
// at every refresh point (every applied action and every iteration
// boundary), so the mass an estimate reads is never more than one
// applied action's fold away from the from-scratch value. The exact
// kernel still scores every *applied* action (engine.apply); this
// estimate only ranks candidates.
//
// deltavet:hotpath — the aggregate-arithmetic replacement for the
// exact rescan under GainMode incremental; allocation-free like the
// path it substitutes.
func (e *engine) incrementalGain(c int, isRow bool, idx int, isMember bool) float64 {
	cl := e.clusters[c]
	vol := cl.Volume()
	mass := cl.ResidueMass()
	if mass < 0 {
		// Near-zero masses can dip negative by round-off when a fold
		// subtracts.
		mass = 0
	}

	var contribution float64
	var cnt int
	switch {
	case isMember && isRow:
		contribution = cl.RowResidueMass(idx)
		cnt = cl.RowCount(idx)
	case isMember:
		contribution = cl.ColResidueMass(idx)
		cnt = cl.ColCount(idx)
	case isRow:
		contribution, cnt = cl.RowInsertionMass(idx, e.cfg.ResidueMean)
	default:
		contribution, cnt = cl.ColInsertionMass(idx, e.cfg.ResidueMean)
	}

	var newRes float64
	var newVol int
	if isMember {
		newVol = vol - cnt
		if newVol > 0 {
			m := mass - contribution
			if m < 0 {
				m = 0
			}
			newRes = m / float64(newVol)
		}
	} else {
		newVol = vol + cnt
		if newVol > 0 {
			newRes = (mass + contribution) / float64(newVol)
		}
	}
	nRows, nCols := cl.NumRows(), cl.NumCols()
	delta := 1
	if isMember {
		delta = -1
	}
	if isRow {
		nRows += delta
	} else {
		nCols += delta
	}
	return e.costs[c] - e.cost(newRes, newVol, nRows, nCols)
}

// violatesToggled checks the constraints that concern the toggled
// state p describes in cluster c: the volume ceiling, occupancy α and
// the pairwise overlap budget.
func (e *engine) violatesToggled(p *cluster.Probe, c int) bool {
	cons := &e.cfg.Constraints
	inserts := p.Inserts()
	if inserts && cons.MaxVolume > 0 && p.Volume() > cons.MaxVolume {
		return true
	}
	if cons.Occupancy > 0 && !p.SatisfiesOccupancy(cons.Occupancy) {
		return true
	}
	if cons.MaxOverlap >= 0 && inserts {
		// Only insertions can raise overlap.
		cells := p.NumRows() * p.NumCols()
		for o, other := range e.clusters {
			if o == c {
				continue
			}
			oCells := other.NumRows() * other.NumCols()
			minCells := cells
			if oCells < minCells {
				minCells = oCells
			}
			if minCells == 0 {
				continue
			}
			if float64(p.Overlap(other)) > cons.MaxOverlap*float64(minCells) {
				return true
			}
		}
	}
	return false
}

// approximateGain estimates the gain of toggling item (isRow, idx) in
// cl from that item's own residue contribution under the cluster's
// *current* bases, in O(n+m) instead of the exact O(n·m). For a
// removal the contribution is subtracted from the residue mass; for an
// insertion the incoming entries are scored against the existing
// bases (the item's own base is its mean over the cluster's
// columns/rows). This is the ablation knob Config.ApproximateGain.
//
// deltavet:hotpath — replaces the exact scan per evaluation when
// enabled; must stay allocation-free like the path it substitutes.
func (e *engine) approximateGain(c int, isRow bool, idx int, isMember bool) float64 {
	cl := e.clusters[c]
	mean := e.cfg.ResidueMean
	vol := cl.Volume()
	res := e.residues[c]
	base := cl.Base()
	if math.IsNaN(base) {
		base = 0
	}

	var contribution float64
	var cnt int
	if isRow {
		row := cl.Matrix().RowView(idx)
		// The sorted membership lands in engine-owned scratch —
		// ColsInto reuses its storage, so the two passes below cost no
		// allocations (cl.Cols() would allocate and sort twice).
		cols := cl.ColsInto(e.idxScratch)
		e.idxScratch = cols
		// The item's base over the cluster's columns.
		sum := 0.0
		for _, j := range cols {
			if v := row[j]; !math.IsNaN(v) {
				sum += v
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		itemBase := sum / float64(cnt)
		if isMember {
			itemBase = cl.RowBase(idx)
		}
		for _, j := range cols {
			v := row[j]
			if math.IsNaN(v) {
				continue
			}
			colBase := cl.ColBase(j)
			if math.IsNaN(colBase) {
				colBase = base
			}
			r := v - itemBase - colBase + base
			if mean == cluster.SquaredMean {
				contribution += r * r
			} else {
				contribution += math.Abs(r)
			}
		}
	} else {
		// ColView turns the column walk unit-stride; its entries are
		// bit copies of the row-major backing, so every operand below
		// is unchanged.
		col := cl.Matrix().ColView(idx)
		rows := cl.RowsInto(e.idxScratch)
		e.idxScratch = rows
		sum := 0.0
		for _, i := range rows {
			if v := col[i]; !math.IsNaN(v) {
				sum += v
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		itemBase := sum / float64(cnt)
		if isMember {
			itemBase = cl.ColBase(idx)
		}
		for _, i := range rows {
			v := col[i]
			if math.IsNaN(v) {
				continue
			}
			rowBase := cl.RowBase(i)
			if math.IsNaN(rowBase) {
				rowBase = base
			}
			r := v - rowBase - itemBase + base
			if mean == cluster.SquaredMean {
				contribution += r * r
			} else {
				contribution += math.Abs(r)
			}
		}
	}

	var newRes float64
	var newVol int
	if isMember {
		newVol = vol - cnt
		if newVol <= 0 {
			newRes = 0
		} else {
			mass := res*float64(vol) - contribution
			if mass < 0 {
				mass = 0
			}
			newRes = mass / float64(newVol)
		}
	} else {
		newVol = vol + cnt
		newRes = (res*float64(vol) + contribution) / float64(newVol)
	}
	nRows, nCols := cl.NumRows(), cl.NumCols()
	delta := 1
	if isMember {
		delta = -1
	}
	if isRow {
		nRows += delta
	} else {
		nCols += delta
	}
	return e.costs[c] - e.cost(newRes, newVol, nRows, nCols)
}

// decideOne determines the best action for item (isRow, idx) across
// all k clusters against the current state: decideRange over a
// one-item range.
func (e *engine) decideOne(isRow bool, idx int) decision {
	t := idx
	if !isRow {
		t += e.m.Rows()
	}
	var d [1]decision
	e.decideRange(t, t+1, d[:])
	return d[0]
}

// decideRange determines the best action of items lo..hi−1 (itemOf
// numbering) into out[0:hi−lo] against the current state. It walks
// the clusters in ascending order and, within each, every item; an
// item keeps a cluster's gain only if it is strictly greater than the
// best so far, so the lowest cluster index wins ties and every
// decision — and the gainEvals tally — is the one an item-by-item loop
// over the clusters produces. Under the exact tier the non-member rows
// of a cluster are scored four per pass over its pack
// (cluster.RowInsertionResidues).
//
// deltavet:hotpath — the decide phase's kernel; everything it
// statically calls inherits the allocation-free discipline.
func (e *engine) decideRange(lo, hi int, out []decision) {
	out = out[:hi-lo]
	for t := range out {
		isRow, idx := e.itemOf(lo + t)
		out[t] = decision{isRow: isRow, idx: idx, clusterIdx: -1, gain: negInf}
	}
	batched := e.cfg.GainMode == GainExact && !e.cfg.ApproximateGain
	ps := &e.probes
	for c, cl := range e.clusters {
		n := 0
		for t := range out {
			d := &out[t]
			if !batched || !d.isRow || cl.HasRow(d.idx) {
				if g := e.evalAction(d.isRow, d.idx, c); g > d.gain {
					d.gain, d.clusterIdx = g, c
				}
				continue
			}
			e.gainEvals++
			if !e.admits(&ps.batch[n], true, d.idx, c) {
				continue // −∞ never beats the best so far
			}
			ps.at[n] = t
			n++
			if n == len(ps.batch) {
				e.scoreBatch(c, n, out)
				n = 0
			}
		}
		if n > 0 {
			e.scoreBatch(c, n, out)
		}
	}
}

// scoreBatch scores the first n batched row insertions into cluster c
// in one pass and offers each gain to the decision it serves.
func (e *engine) scoreBatch(c, n int, out []decision) {
	ps := &e.probes
	cluster.RowInsertionResidues(ps.batch[:n], e.cfg.ResidueMean, ps.res[:n])
	for q := 0; q < n; q++ {
		p := &ps.batch[q]
		if debugInvariants {
			e.checkProbe(p, c, ps.res[q], true)
		}
		d := &out[ps.at[q]]
		if g := e.exactGain(c, p, ps.res[q]); g > d.gain {
			d.gain, d.clusterIdx = g, c
		}
	}
}

// decideAll (parallel.go) determines the best action for every row
// and column (Figure 5, first box of phase 2), in matrix order,
// sharding the items across Config.Workers goroutines.
