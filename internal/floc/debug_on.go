//go:build deltadebug

package floc

import (
	"fmt"
	"math"

	"deltacluster/internal/cluster"
	"deltacluster/internal/stats"
)

// debugInvariants gates the from-scratch invariant assertions. Build
// with -tags deltadebug to enable them; the release build compiles
// the checks away entirely (see debug_off.go).
const debugInvariants = true

// assertTol is the relative tolerance for comparing incrementally
// maintained float caches against from-scratch recomputation. The
// engine's own improvement threshold is 1e-10; drift beyond 1e-6 of
// scale means bookkeeping is wrong, not merely jittery.
const assertTol = 1e-6

// assertInvariants recomputes every cluster's aggregates, residue and
// cost from the raw matrix and panics if any cached value diverges —
// the dynamic twin of cmd/deltavet's residueinvariant pass. context
// names the call site in the panic message. It runs after every
// applied action under the deltadebug tag, so a write path that
// desynchronizes the caches fails loudly at the exact action that
// broke them instead of surfacing as slightly-wrong residues much
// later.
func (e *engine) assertInvariants(context string) {
	die := func(format string, args ...any) {
		panic(fmt.Sprintf("floc: deltadebug invariant violated after %s: %s",
			context, fmt.Sprintf(format, args...)))
	}
	within := func(got, want float64) bool {
		return stats.EqualWithin(got, want, assertTol*(1+math.Abs(want)))
	}

	var resSum, costSum float64
	coverRow := make([]int, len(e.coverRow))
	coverCol := make([]int, len(e.coverCol))
	for c, cl := range e.clusters {
		fresh := cl.Clone()
		fresh.Recompute()
		if cl.Volume() != fresh.Volume() {
			die("cluster %d cached volume %d, recomputed %d", c, cl.Volume(), fresh.Volume())
		}
		if cl.ResidueAggregatesEnabled() {
			// Every assert context sits at a refresh point: seeding,
			// warm start, resume, iteration boundary and restore land on
			// boundary states, and apply re-anchors the masses beside
			// its exact rescan — so the fold-convention masses must
			// agree with the from-scratch definition (which Recompute on
			// the clone just rebuilt) after every mutation the engine
			// performs. Evaluations probe read-only and fold nothing.
			if !within(cl.ResidueMass(), fresh.ResidueMass()) {
				die("cluster %d residue mass %v, recomputed %v", c, cl.ResidueMass(), fresh.ResidueMass())
			}
			for _, i := range cl.Rows() {
				if !within(cl.RowResidueMass(i), fresh.RowResidueMass(i)) {
					die("cluster %d row %d residue mass %v, recomputed %v",
						c, i, cl.RowResidueMass(i), fresh.RowResidueMass(i))
				}
			}
			for _, j := range cl.Cols() {
				if !within(cl.ColResidueMass(j), fresh.ColResidueMass(j)) {
					die("cluster %d column %d residue mass %v, recomputed %v",
						c, j, cl.ColResidueMass(j), fresh.ColResidueMass(j))
				}
			}
		}
		cachedRes := cl.ResidueWith(e.cfg.ResidueMean)
		trueRes := fresh.ResidueWith(e.cfg.ResidueMean)
		if !within(cachedRes, trueRes) {
			die("cluster %d aggregate drift: residue from cached sums %v, from scratch %v",
				c, cachedRes, trueRes)
		}
		if !within(e.residues[c], trueRes) {
			die("cluster %d engine residue cache %v, recomputed %v", c, e.residues[c], trueRes)
		}
		trueCost := e.cost(trueRes, fresh.Volume(), fresh.NumRows(), fresh.NumCols())
		if !within(e.costs[c], trueCost) {
			die("cluster %d engine cost cache %v, recomputed %v", c, e.costs[c], trueCost)
		}
		resSum += e.residues[c]
		costSum += e.costs[c]
		for _, i := range cl.Rows() {
			coverRow[i]++
		}
		for _, j := range cl.Cols() {
			coverCol[j]++
		}
	}
	if !within(e.resSum, resSum) {
		die("residue sum cache %v, sum of residues %v", e.resSum, resSum)
	}
	if !within(e.costSum, costSum) {
		die("cost sum cache %v, sum of costs %v", e.costSum, costSum)
	}
	for i := range coverRow {
		if e.coverRow[i] != coverRow[i] {
			die("row %d coverage cache %d, recomputed %d", i, e.coverRow[i], coverRow[i])
		}
	}
	for j := range coverCol {
		if e.coverCol[j] != coverCol[j] {
			die("column %d coverage cache %d, recomputed %d", j, e.coverCol[j], coverCol[j])
		}
	}
}

// checkProbe cross-checks a probe of cluster c against a real toggle:
// the cluster is copied into the evaluator's own scratch cluster
// (probeRef, so decide workers never share one), the item is really
// toggled there, and the copy is asked what the probe answered — its
// volume and shape, occupancy at the configured α, its overlap with
// every other cluster and, when scored is set, its residue, which must
// match res bit for bit. These are every input of violatesToggled's
// verdict and of the exact gain, so a probe that drifts from the
// mutators' arithmetic fails at the first evaluation it gets wrong.
func (e *engine) checkProbe(p *cluster.Probe, c int, res float64, scored bool) {
	cl := e.clusters[c]
	if e.probeRef == nil {
		e.probeRef = cl.Clone()
	} else {
		e.probeRef.CopyFrom(cl)
	}
	ref := e.probeRef
	isRow, idx := p.Item()
	if isRow {
		ref.ToggleRow(idx)
	} else {
		ref.ToggleCol(idx)
	}
	die := func(format string, args ...any) {
		panic(fmt.Sprintf("floc: deltadebug probe of cluster %d (isRow=%v idx=%d) disagrees with a real toggle: %s",
			c, isRow, idx, fmt.Sprintf(format, args...)))
	}
	if p.Volume() != ref.Volume() || p.NumRows() != ref.NumRows() || p.NumCols() != ref.NumCols() {
		die("probe volume %d shape %dx%d, toggled %d %dx%d",
			p.Volume(), p.NumRows(), p.NumCols(), ref.Volume(), ref.NumRows(), ref.NumCols())
	}
	if a := e.cfg.Constraints.Occupancy; a > 0 && p.SatisfiesOccupancy(a) != ref.SatisfiesOccupancy(a) {
		die("probe occupancy(%v) = %v, toggled %v", a, p.SatisfiesOccupancy(a), ref.SatisfiesOccupancy(a))
	}
	for o, other := range e.clusters {
		if o != c && p.Overlap(other) != ref.Overlap(other) {
			die("probe overlap with cluster %d = %d, toggled %d", o, p.Overlap(other), ref.Overlap(other))
		}
	}
	if scored {
		if want := ref.ResidueWith(e.cfg.ResidueMean); math.Float64bits(res) != math.Float64bits(want) {
			die("probe residue %v (%016x), toggled %v (%016x)", res, math.Float64bits(res), want, math.Float64bits(want))
		}
	}
}
