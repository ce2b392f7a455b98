package floc

import (
	"math"

	"deltacluster/internal/cluster"
)

// Gain evaluation.
//
// Every candidate action — toggling one row or column in one cluster —
// is judged on the state the toggle would produce: whether the
// constraints admit it, and the toggled residue. None of it toggles
// anything. A cluster.Probe computes the toggled residue, volume,
// shape, occupancy and overlap from the frozen pre-toggle cluster,
// replaying each mutator's operand order so every answer carries the
// bits a real toggle would (cluster/probe.go). An evaluation is
// therefore a pure function of the engine state, and the decide
// workers read the engine's clusters directly (parallel.go).
//
// Admission is two steps: preAdmits, the size-floor and coverage
// checks that need no toggled state, then violatesToggled on the
// probe. admits runs both for a single evaluation, and evalAction adds
// the exact gain. decideRange scores a whole range of items cluster by
// cluster. It queues each cluster's row insertions, row removals and
// column insertions by kind, loads each kind cluster.Lanes candidates
// at a time in one stream, drops the lanes the constraints block, and
// scores every full batch of admitted lanes in one pass over the
// cluster's pack (one per four lanes on the portable kernels). Column
// removals, a few percent of the scanned entries, are evaluated one at
// a time.

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

// probeScratch is one evaluator's read-only probe scratch: a batch for
// single evaluations, and the queues of the batched probe kinds with
// their scored residues.
type probeScratch struct {
	one   cluster.Batch
	queue [batchedKinds]probeQueue
	res   [cluster.Lanes]float64
}

// The probe kinds decideRange batches, indexing probeScratch.queue.
// Column removals are evaluated one at a time.
const (
	rowInsertions = iota
	rowRemovals
	colInsertions
	batchedKinds
)

// probeQueue is one batched kind's candidates in the cluster being
// decided: the n admitted lanes loaded into b, then nWait items waiting
// to be loaded. at holds the decision slot each one serves, in that
// order.
type probeQueue struct {
	b     cluster.Batch
	n     int
	wait  [cluster.Lanes]int
	nWait int
	at    [cluster.Lanes]int
}

// evalAction returns the gain of toggling item (isRow, idx) in cluster
// c, or −∞ if the action is blocked by the configured constraints.
// Nothing is toggled: the constraint verdict and the exact residue
// come from a read-only probe of the frozen cluster.
//
// deltavet:hotpath — one call per (item, cluster) pair outside the
// decide phase's batches; BenchmarkDecideAll pins the whole chain at 0
// allocs/op.
func (e *engine) evalAction(isRow bool, idx, c int) float64 {
	e.gainEvals++
	p, ok := e.admits(isRow, idx, c)
	if !ok {
		return negInf
	}
	res := p.Residue()
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

// admits probes toggling item (isRow, idx) in cluster c with the
// single-evaluation batch and reports whether the configured
// constraints allow the toggle: the pre-checks, then the toggled-state
// checks. It is the admission test of every evaluation outside the
// decide phase's batches and of blockedNow; the probe is nil when a
// pre-check fails.
func (e *engine) admits(isRow bool, idx, c int) (*cluster.Probe, bool) {
	cl := e.clusters[c]
	if !e.preAdmits(cl, isRow, idx) {
		return nil, false
	}
	b := &e.probes.one
	b.Load(cl, isRow, idx)
	p := b.Probe(0)
	if debugInvariants {
		e.checkProbe(p, c, 0, false)
	}
	return p, !e.violatesToggled(p, c)
}

// preAdmits runs the admission checks that need no toggled state: a
// removal must keep the size floor and, where coverage is required,
// leave the item covered by another cluster.
func (e *engine) preAdmits(cl *cluster.Cluster, isRow bool, idx int) bool {
	cons := &e.cfg.Constraints
	if isRow && cl.HasRow(idx) {
		return cl.NumRows()-1 >= cons.MinRows && !(cons.RequireRowCoverage && e.coverRow[idx] <= 1)
	}
	if !isRow && cl.HasCol(idx) {
		return cl.NumCols()-1 >= cons.MinCols && !(cons.RequireColCoverage && e.coverCol[idx] <= 1)
	}
	return true
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

// decideRange determines the best action of items lo..hi−1 (itemOf
// numbering) into out[0:hi−lo] against the current state. It walks
// the clusters in ascending order and, within each, every item
// (decideCluster); an item keeps a cluster's gain only if it is
// strictly greater than the best so far, so the lowest cluster index
// wins ties and every decision — and the gainEvals tally — is the one
// an item-by-item loop over the clusters produces.
//
// deltavet:hotpath — the decide phase's kernel; everything it
// statically calls inherits the allocation-free discipline.
func (e *engine) decideRange(lo, hi int, out []decision) {
	out = out[:hi-lo]
	for t := range out {
		isRow, idx := e.itemOf(lo + t)
		out[t] = decision{isRow: isRow, idx: idx, clusterIdx: -1, gain: negInf}
	}
	for c := range e.clusters {
		e.decideCluster(c, out)
	}
}

// decideCluster offers every decision in out the gain of toggling its
// item in cluster c, which it keeps if strictly greater than its best
// so far. The row insertions, row removals and column insertions are
// queued by kind, loaded cluster.Lanes at a time, and scored a full
// batch of admitted lanes per pass (cluster.Batch); column removals
// are evaluated one at a time.
func (e *engine) decideCluster(c int, out []decision) {
	cl := e.clusters[c]
	for t := range out {
		d := &out[t]
		var member bool
		if d.isRow {
			member = cl.HasRow(d.idx)
		} else {
			member = cl.HasCol(d.idx)
		}
		if !d.isRow && member {
			if g := e.evalAction(d.isRow, d.idx, c); g > d.gain {
				d.gain, d.clusterIdx = g, c
			}
			continue
		}
		e.gainEvals++
		if member && !e.preAdmits(cl, d.isRow, d.idx) {
			continue // −∞ never beats the best so far
		}
		kind := colInsertions
		switch {
		case d.isRow && member:
			kind = rowRemovals
		case d.isRow:
			kind = rowInsertions
		}
		qu := &e.probes.queue[kind]
		qu.wait[qu.nWait], qu.at[qu.n+qu.nWait] = d.idx, t
		qu.nWait++
		if qu.n+qu.nWait == cluster.Lanes {
			e.flushQueue(c, kind, false, out)
		}
	}
	for kind := range e.probes.queue {
		e.flushQueue(c, kind, true, out)
	}
}

// flushQueue loads the waiting items of queue kind in one stream,
// drops the lanes the constraints block, and scores the batch once it
// is full of admitted lanes, or whatever it holds when last is set
// (the cluster's items are all queued).
func (e *engine) flushQueue(c, kind int, last bool, out []decision) {
	qu := &e.probes.queue[kind]
	b := &qu.b
	if qu.nWait > 0 {
		cl, isRow := e.clusters[c], kind != colInsertions
		if qu.n == 0 {
			b.Load(cl, isRow, qu.wait[:qu.nWait]...)
		} else {
			b.Append(cl, isRow, qu.wait[:qu.nWait]...)
		}
		qu.nWait = 0
		for q := qu.n; q < b.Len(); {
			p := b.Probe(q)
			if debugInvariants {
				e.checkProbe(p, c, 0, false)
			}
			if !e.violatesToggled(p, c) {
				q++
				continue
			}
			// −∞ never beats the best so far. The last lane moves into
			// q and is checked next.
			qu.at[q] = qu.at[b.Len()-1]
			b.Drop(q)
		}
		qu.n = b.Len()
	}
	if qu.n == 0 || qu.n < cluster.Lanes && !last {
		return
	}
	res := e.probes.res[:qu.n]
	b.Residues(res)
	for q, r := range res {
		p := b.Probe(q)
		if debugInvariants {
			e.checkProbe(p, c, r, true)
		}
		d := &out[qu.at[q]]
		if g := e.exactGain(c, p, r); g > d.gain {
			d.gain, d.clusterIdx = g, c
		}
	}
	qu.n = 0
}

// decideAll (parallel.go) determines the best action for every row
// and column (Figure 5, first box of phase 2), in matrix order,
// sharding the items across Config.Workers goroutines.
