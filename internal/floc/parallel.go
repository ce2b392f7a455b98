package floc

import "sync"

// Parallel decide phase.
//
// Phase 2's first box (Figure 5) scores one action per row and column
// against the *iteration-start* engine state: (M+N)·k independent gain
// evaluations that read frozen data. decideAll shards the M+N items
// across Config.Workers goroutines and merges the shards by item
// index, so the decision slice — and therefore every downstream
// ordering draw, apply, checkpoint, fingerprint and OnProgress
// observation — is bit-identical to the serial engine's for any
// worker count.
//
// The determinism argument has three legs:
//
//  1. Evaluations are pure. Nothing is toggled: every constraint
//     verdict and exact residue comes from a read-only cluster.Probe of
//     the frozen iteration-start state, whose answers carry the bits a
//     real toggle would (gain.go). Each item's decision is therefore a
//     function of the frozen bits only, not of evaluation order.
//  2. Workers share nothing mutable. A worker evaluates on a shadow
//     engine that reads the engine's clusters and its residue/cost/
//     coverage caches in place and owns only its probe scratch and its
//     tally. Ties between clusters resolve by the same
//     lowest-index-wins rule (decideRange's strict >) on every worker.
//     The -race runs of the worker matrix check that the sharing is
//     read-only.
//  3. The merge is positional. Worker w writes out[t] for exactly the
//     t in its shard, and shard boundaries come from the same indexed
//     item enumeration (itemOf) the serial loop uses, so the merged
//     slice equals the serial one element for element. gainEvals
//     tallies are integers summed in worker order.
//
// Only the decide phase runs in parallel. The apply loop stays serial
// on purpose: each apply mutates shared cluster state and its
// blockedNow re-check depends on every apply before it, so the
// sequential dependency is semantic, not incidental. Decide is the
// O((M+N)·k·n·m) bulk of an iteration; apply is O(actions·n·m) on the
// winning prefix only.

// itemOf maps a global decide-phase item index to its action target:
// items 0..M−1 are rows, items M..M+N−1 are columns. It is the single
// source of truth for item enumeration — the serial loop, the shard
// bounds and the positional merge all index through it, so they
// cannot disagree about which item lands where.
func (e *engine) itemOf(t int) (isRow bool, idx int) {
	if t < e.m.Rows() {
		return true, t
	}
	return false, t - e.m.Rows()
}

// decideWorkers resolves Config.Workers against the number of items:
// never more workers than items, never fewer than one.
func (e *engine) decideWorkers(items int) int {
	w := e.cfg.Workers
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// decideAll determines the best action for every row and column in
// matrix order; ordering strategies permute the result afterwards.
// With Workers ≤ 1 it is one decideRange over every item; otherwise
// the items are sharded as documented above.
//
// The returned slice is backed by engine-owned scratch that the next
// decideAll call overwrites; callers must copy it to retain it across
// calls. Shadows are pooled across iterations, so the steady-state
// decide phase performs no heap allocations beyond goroutine startup.
func (e *engine) decideAll() []decision {
	items := e.m.Rows() + e.m.Cols()
	if cap(e.decisions) < items {
		e.decisions = make([]decision, items)
	}
	out := e.decisions[:items]
	workers := e.decideWorkers(items)
	if workers <= 1 {
		e.decideRange(0, items, out)
		return out
	}

	for len(e.shadows) < workers {
		e.shadows = append(e.shadows, &engine{})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * items / workers
		hi := (w + 1) * items / workers
		sh := e.shadows[w]
		sh.refreshShadow(e)
		wg.Add(1)
		go func(sh *engine, lo, hi int) {
			defer wg.Done()
			sh.decideRange(lo, hi, out[lo:hi])
		}(sh, lo, hi)
	}
	wg.Wait()
	// Integer tallies merge in worker order; the total equals the
	// serial count because every item costs exactly k evaluations.
	// Only the first `workers` shadows ran this call (the pool never
	// shrinks, but decideWorkers is stable for a fixed config/matrix).
	for _, sh := range e.shadows[:workers] {
		e.gainEvals += sh.gainEvals
	}
	return out
}

// refreshShadow points a pooled decide-phase shadow at the engine's
// iteration-start state (deltavet:writer — the guarded caches are
// aliased, not written: workers only read them, and read the clusters
// in place through probes). A shadow owns only its probe scratch,
// idxScratch and its tally.
func (sh *engine) refreshShadow(e *engine) {
	sh.m = e.m
	sh.cfg = e.cfg
	sh.clusters = e.clusters
	sh.residues = e.residues
	sh.costs = e.costs
	sh.w = e.w
	sh.coverRow = e.coverRow
	sh.coverCol = e.coverCol
	sh.gainEvals = 0
}
