package floc

import (
	"time"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// Result reports the outcome of a FLOC run.
type Result struct {
	// Clusters is the best clustering found. The clusters reference
	// the input matrix and may be inspected or mutated freely by the
	// caller.
	Clusters []*cluster.Cluster

	// AvgResidue is the average of the k cluster residues — the
	// objective FLOC minimizes.
	AvgResidue float64

	// Iterations counts the phase-2 iterations that improved the
	// clustering (the final non-improving iteration that triggers
	// termination is not counted, matching how Table 2 reports "number
	// of iterations till termination").
	Iterations int

	// ActionsApplied counts membership toggles actually performed,
	// including those undone when an iteration's tail was rolled back.
	ActionsApplied int64

	// GainEvaluations counts single-action gain evaluations, the unit
	// of the paper's O((N+M)·N·M·k) complexity analysis.
	GainEvaluations int64

	// ResidueTrace holds the best average residue after each improving
	// iteration, starting with the seed clustering's average residue.
	ResidueTrace []float64

	// Duration is the wall-clock time of the run, the paper's
	// "response time".
	Duration time.Duration

	// FinalCheckpoint is the run's last iteration boundary, preserved
	// when RunOptions.KeepFinalCheckpoint is set and never nil then. It
	// is the parent handle a warm-started recluster seeds from after
	// the matrix mutates (see WarmStart). A cold run that never
	// improved keeps its boundary 0, the seed checkpoint (see
	// Checkpoint). Note the polish phase runs after this boundary, so
	// the checkpoint does not describe Clusters verbatim; resuming it
	// replays the final non-improving iteration and the polish
	// bit-identically. A PartialResult's Result carries the
	// PartialResult's Checkpoint here whatever the options.
	FinalCheckpoint *Checkpoint
}

// engine carries the mutable state of one FLOC run.
//
// The residue/cost caches below are guarded: they must stay exactly
// consistent with the clusters after every toggle, so only functions
// marked deltavet:writer may assign them (enforced by cmd/deltavet's
// residueinvariant pass, and dynamically by the deltadebug build
// tag's assertions).
type engine struct {
	m        *matrix.Matrix
	cfg      *Config
	rng      *stats.RNG
	clusters []*cluster.Cluster
	residues []float64 // residue of each cluster, kept in sync // deltavet:guard
	resSum   float64   // sum of residues (avg = resSum / k) // deltavet:guard
	costs    []float64 // objective cost of each cluster (see cost) // deltavet:guard
	costSum  float64   // sum of costs, kept in sync // deltavet:guard
	w        float64   // number of specified matrix entries (penalty scale)
	coverRow []int     // number of clusters containing each row // deltavet:guard
	coverCol []int     // number of clusters containing each column // deltavet:guard

	gainEvals int64
	actions   int64

	// probes is this evaluator's read-only probe scratch (see
	// probeScratch). The engine and every decide-phase shadow own one,
	// so probes are never shared across goroutines.
	probes probeScratch

	// mSum caches matrixSum(m) once computed (mSumSet): the matrix
	// cannot change during a run, so every checkpoint the run cuts
	// shares one hash of it.
	mSum    uint64
	mSumSet bool

	// seeded reports that the clusters are phase 1's, not yet
	// normalized by an improving boundary; exportCheckpoint then cuts
	// the seed checkpoint, which holds no cluster states.
	seeded bool

	// probeRef is the scratch cluster the deltadebug build toggles for
	// real to cross-check every probe (debug_on.go); nil otherwise.
	probeRef *cluster.Cluster

	// Reused scratch, all owned by this engine (shadows get their own):
	// decisions backs decideAll's result (overwritten every call — the
	// caller must not retain it across calls), shadows pools the
	// decide-phase workers across iterations, applied and snap back
	// iterate's bookkeeping, and polishCands holds polish's candidate
	// removals. Together they take the steady-state decide phase to
	// zero heap allocations.
	decisions   []decision
	shadows     []*engine
	applied     []appliedAction
	snap        *snapshot
	polishCands []decision
}

// cost maps a cluster's shape and residue to the objective FLOC
// minimizes. Under ResidueGain it is the residue itself (Section 4.1
// verbatim). Under VolumeGain it is
//
//	cost = v·r/δ − v·(1−1/n)(1−1/m)
//
// with v the cluster's volume, r its residue, n×m its row/column
// counts and δ = MaxResidue. Because v·r is the cluster's total
// residue mass Σ|r_ij|, minimizing Σ_c cost(c) maximizes total
// effective volume minus total residue mass priced at 1/δ — the
// r-residue δ-cluster objective in soft form. The marginal rule it
// induces is exactly the right one: extending a cluster pays off iff
// the added entries carry less than ≈ δ of residue each, so δ is the
// exchange rate between coherence and coverage.
//
// The reward term uses the *effective* volume v·(1−2/n)(1−2/m): the
// volume discounted for statistical hollowness. Two effects make the
// raw mean |residue| of a narrow cluster mechanically small whatever
// the data: the fitted bases absorb (n+m−1) degrees of freedom, and —
// more damagingly — FLOC *selects* members, so a many-rows×2-columns
// cluster can cherry-pick the rows whose pairwise difference happens
// to sit near the mode and look perfectly "coherent" on noise. The
// discount zeroes the reward for 2-wide shapes and prices the
// selection bias at 3-wide ones, in the same spirit as the paper's
// Cons_v volume constraint ("statistical significance"). Oversized
// incoherent clusters are likewise repelled: with r > δ the mass term
// exceeds any reward and grows with volume.
func (e *engine) cost(residue float64, volume, nRows, nCols int) float64 {
	if e.cfg.GainPolicy == ResidueGain {
		return residue
	}
	reward := 0.0
	if nRows > 2 && nCols > 2 {
		reward = float64(volume) *
			(1 - 2/float64(nRows)) * (1 - 2/float64(nCols))
	}
	return float64(volume)*residue/e.cfg.MaxResidue - reward
}

// seedCost prices a candidate seed cluster with the run's cost
// function, the ranking anchored seeding keeps its best K by.
func (e *engine) seedCost(cl *cluster.Cluster) float64 {
	return e.cost(cl.Residue(), cl.Volume(), cl.NumRows(), cl.NumCols())
}

// appliedAction records one performed (or skipped) toggle so an
// iteration prefix can be replayed exactly onto a checkpoint.
type appliedAction struct {
	skipped    bool
	isRow      bool
	idx        int
	clusterIdx int
}

// newEngine builds an engine over m with a validated cfg and performs
// phase 1 (seeding), initializing the guarded caches from the seed
// clustering.
func newEngine(m *matrix.Matrix, cfg *Config) *engine {
	e := &engine{
		m:        m,
		cfg:      cfg,
		rng:      stats.NewRNG(cfg.Seed),
		coverRow: make([]int, m.Rows()),
		coverCol: make([]int, m.Cols()),
	}

	// Phase 1: seeds.
	e.w = float64(m.SpecifiedCount())
	mode := cfg.SeedMode
	if mode == SeedAuto {
		// Anchored seeding degrades gracefully — slots without a
		// coherent candidate fall back to random seeds — while random
		// seeding alone cannot bootstrap discovery (see SeedMode docs),
		// so auto means anchored under the volume objective. The
		// paper-literal ResidueGain has no δ to carve with; it keeps
		// the paper's random seeding.
		if cfg.GainPolicy == VolumeGain {
			mode = SeedAnchored
		} else {
			mode = SeedRandom
		}
	}
	if mode == SeedAnchored {
		e.clusters = anchoredSeeds(m, cfg, e.rng, e.seedCost)
		repairAll(e.clusters, m, cfg, e.rng)
	} else {
		e.clusters = seedClusters(m, cfg, e.rng)
	}
	// Freeze the derived matrix caches (column-major mirror, missing
	// bitsets) from this single goroutine before the decide phase can
	// share the matrix with worker goroutines, and turn on the dense
	// evaluation pack that the residue kernel scans — both are exact
	// bit copies of the backing data, so every residue computed from
	// here on is bit-identical to the unpacked path.
	m.EnsureDerived()
	for _, cl := range e.clusters {
		cl.EnablePack()
	}
	e.seeded = true
	e.initCaches("seeding")
	return e
}

// initCaches fills the guarded residue, cost and coverage caches from
// the clusters as they stand (deltavet:writer). Every engine
// constructor ends with it.
func (e *engine) initCaches(where string) {
	e.residues = make([]float64, e.cfg.K)
	e.costs = make([]float64, e.cfg.K)
	for c, cl := range e.clusters {
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
		e.assertInvariants(where)
	}
}

// finish runs the optional polish phase after phase 2 terminates,
// re-pricing the guarded cost caches when PolishMaxResidue tightens δ
// (deltavet:writer).
func (e *engine) finish() {
	cfg := e.cfg
	if !cfg.Polish {
		return
	}
	if cfg.PolishMaxResidue > 0 && cfg.GainPolicy == VolumeGain {
		// Tighten δ for the cleanup and re-price every cluster
		// under the new exchange rate before evaluating removals.
		e.cfg.MaxResidue = cfg.PolishMaxResidue
		e.costSum = 0
		for c, cl := range e.clusters {
			e.costs[c] = e.cost(e.residues[c], cl.Volume(), cl.NumRows(), cl.NumCols())
			e.costSum += e.costs[c]
		}
	}
	e.polish()
}

// result snapshots the engine's current clustering as a Result.
//
// deltavet:observability — time.Since fills the Duration reporting
// field only; every other field is a pure function of engine state.
func (e *engine) result(iterations int, trace []float64, start time.Time) *Result {
	return &Result{
		Clusters:        e.clusters,
		AvgResidue:      e.avgResidue(),
		Iterations:      iterations,
		ActionsApplied:  e.actions,
		GainEvaluations: e.gainEvals,
		ResidueTrace:    trace,
		Duration:        time.Since(start),
	}
}

func (e *engine) avgResidue() float64 { return e.resSum / float64(e.cfg.K) }

// iterate performs one phase-2 iteration starting from the current
// clustering (the best so far). It returns the new best objective
// cost and whether the iteration improved on bestCost. On improvement
// the engine state is left at the best intermediate clustering;
// otherwise the state is left untouched.
//
// iterate rebuilds the guarded caches from scratch at the iteration
// boundary to kill incremental drift (deltavet:writer).
func (e *engine) iterate(bestCost float64) (float64, bool) {
	// Decide the best action of every row and column against the
	// iteration's starting state, then order them.
	decisions := e.decideAll()
	orderDecisions(decisions, e.cfg.Order, e.rng)

	checkpoint := e.checkpoint()

	if cap(e.applied) < len(decisions) {
		e.applied = make([]appliedAction, len(decisions))
	}
	applied := e.applied[:len(decisions)]
	minCost := bestCost
	minAt := -1
	for t, d := range decisions {
		if d.clusterIdx < 0 || e.blockedNow(d) {
			applied[t] = appliedAction{skipped: true}
			continue
		}
		e.apply(d.isRow, d.idx, d.clusterIdx)
		applied[t] = appliedAction{isRow: d.isRow, idx: d.idx, clusterIdx: d.clusterIdx}
		if e.costSum < minCost-improveEps(minCost) {
			minCost = e.costSum
			minAt = t
		}
	}

	e.restore(checkpoint)
	if minAt < 0 {
		return bestCost, false
	}
	// Replay the winning prefix onto the checkpoint. The boundary
	// recompute below rescores every cluster, so the replay only
	// mutates membership and coverage.
	for t := 0; t <= minAt; t++ {
		a := applied[t]
		if a.skipped {
			continue
		}
		e.toggle(a.isRow, a.idx, a.clusterIdx)
	}
	// Kill incremental floating-point drift at the iteration boundary.
	e.resSum = 0
	e.costSum = 0
	for c, cl := range e.clusters {
		cl.Recompute()
		e.residues[c] = cl.Residue()
		e.resSum += e.residues[c]
		e.costs[c] = e.cost(e.residues[c], cl.Volume(), cl.NumRows(), cl.NumCols())
		e.costSum += e.costs[c]
	}
	e.seeded = false
	if debugInvariants {
		e.assertInvariants("iteration boundary")
	}
	return e.costSum, true
}

// improveEps is the tolerance below which residue changes are treated
// as noise rather than improvement, so floating-point jitter cannot
// keep the loop alive.
func improveEps(x float64) float64 {
	if x < 0 {
		x = -x
	}
	return 1e-10 * (1 + x)
}

// blockedNow re-checks the constraints for a decision against the
// current mid-iteration state (the decision was taken against the
// iteration's starting state, and earlier actions may have changed
// the picture). It is evalAction's admission test without the gain:
// removals are re-checked on the toggled state too, since earlier
// actions of this iteration may have changed the cluster so that a
// removal decided against the iteration-start state now breaks
// occupancy.
func (e *engine) blockedNow(d decision) bool {
	_, ok := e.admits(d.isRow, d.idx, d.clusterIdx)
	return !ok
}

// apply performs a toggle and rescores its cluster, updating the
// residue and cost caches. It is the single incremental writer of the
// guarded caches (deltavet:writer); everything else either reads them
// or rebuilds them wholesale at checkpoints.
func (e *engine) apply(isRow bool, idx, c int) {
	e.toggle(isRow, idx, c)
	cl := e.clusters[c]
	newRes := cl.Residue()
	e.resSum += newRes - e.residues[c]
	e.residues[c] = newRes
	newCost := e.cost(newRes, cl.Volume(), cl.NumRows(), cl.NumCols())
	e.costSum += newCost - e.costs[c]
	e.costs[c] = newCost
	if debugInvariants {
		e.assertInvariants("apply")
	}
}

// toggle performs the membership change of an applied action and
// keeps the coverage counts (deltavet:writer): all a replayed action
// needs, because the iteration boundary rescores every cluster after
// the replay. The residue and cost caches are stale until then.
func (e *engine) toggle(isRow bool, idx, c int) {
	if chaosEnabled {
		if err := chaos("pre-apply"); err != nil {
			panic(err)
		}
	}
	cl := e.clusters[c]
	if isRow {
		if cl.HasRow(idx) {
			cl.RemoveRow(idx)
			e.coverRow[idx]--
		} else {
			cl.AddRow(idx)
			e.coverRow[idx]++
		}
	} else {
		if cl.HasCol(idx) {
			cl.RemoveCol(idx)
			e.coverCol[idx]--
		} else {
			cl.AddCol(idx)
			e.coverCol[idx]++
		}
	}
	e.actions++
}

// snapshot captures the engine's cluster state for rollback.
type snapshot struct {
	clusters []*cluster.Cluster
	residues []float64
	costs    []float64
	resSum   float64
	costSum  float64
	coverRow []int
	coverCol []int
}

// checkpoint captures the engine's cluster state for rollback. The
// snapshot's storage is pooled on the engine and reused every
// iteration; callers hold it only until the matching restore.
func (e *engine) checkpoint() *snapshot {
	if e.snap == nil {
		s := &snapshot{
			clusters: make([]*cluster.Cluster, len(e.clusters)),
			residues: append([]float64(nil), e.residues...),
			costs:    append([]float64(nil), e.costs...),
			resSum:   e.resSum,
			costSum:  e.costSum,
			coverRow: append([]int(nil), e.coverRow...),
			coverCol: append([]int(nil), e.coverCol...),
		}
		for c, cl := range e.clusters {
			s.clusters[c] = cl.Clone()
		}
		e.snap = s
		return s
	}
	s := e.snap
	for c, cl := range e.clusters {
		s.clusters[c].CopyFrom(cl)
	}
	copy(s.residues, e.residues)
	copy(s.costs, e.costs)
	s.resSum = e.resSum
	s.costSum = e.costSum
	copy(s.coverRow, e.coverRow)
	copy(s.coverCol, e.coverCol)
	return s
}

// restore rewinds the guarded caches to a checkpoint
// (deltavet:writer).
func (e *engine) restore(s *snapshot) {
	for c := range e.clusters {
		e.clusters[c].CopyFrom(s.clusters[c])
	}
	copy(e.residues, s.residues)
	copy(e.costs, s.costs)
	e.resSum = s.resSum
	e.costSum = s.costSum
	copy(e.coverRow, s.coverRow)
	copy(e.coverCol, s.coverCol)
	if debugInvariants {
		e.assertInvariants("restore")
	}
}
