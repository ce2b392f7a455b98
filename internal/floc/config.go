// Package floc implements FLOC (FLexible Overlapped Clustering), the
// randomized move-based algorithm of Sections 4 and 5 of the paper. It
// approximates the k δ-clusters of a data matrix with the lowest
// average residue.
//
// The algorithm has two phases. Phase 1 builds k random seed clusters:
// every row and column joins each cluster with probability p (a
// per-cluster p implements the mixed seeding of Section 5.1). Phase 2
// repeatedly improves the clustering: at the start of an iteration the
// best action of every row and column — the toggle of its membership
// in one of the k clusters, scored by the gain, i.e. the reduction of
// that cluster's residue — is determined; the M+N actions are then
// performed sequentially in a fixed, random or weighted-random order
// (Section 5.2); the intermediate clustering with the lowest average
// residue becomes the starting point of the next iteration; the
// algorithm stops when an iteration fails to improve on the best
// clustering found so far.
//
// Optional constraints (Sections 3 and 4.3) — cluster size floors and
// ceilings, a pairwise overlap budget, row/column coverage and the
// occupancy threshold α for matrices with missing values — are
// enforced by "blocking": an action whose outcome would violate a
// constraint is assigned gain −∞ and never performed.
//
// This package is marked deltavet:deterministic — equal seeds must
// yield bit-identical runs, so cmd/deltavet forbids unordered map
// iteration, direct math/rand use and raw float equality here.
package floc

import (
	"fmt"
	"math"
	"runtime"

	"deltacluster/internal/stats"
)

// Order selects how the M+N actions of an iteration are sequenced
// (Section 5.2 of the paper).
type Order int

const (
	// FixedOrder performs actions row 0..M−1 then column 0..N−1 every
	// iteration — the baseline the paper improves upon.
	FixedOrder Order = iota
	// RandomOrder reshuffles the action sequence uniformly at the
	// beginning of every iteration.
	RandomOrder
	// WeightedRandomOrder biases the shuffle so actions with larger
	// gains tend to be performed earlier while still leaving room to
	// escape local optima (Section 5.2.2).
	WeightedRandomOrder
)

// String returns the order's name as used in the paper's Table 4.
func (o Order) String() string {
	switch o {
	case FixedOrder:
		return "fixed"
	case RandomOrder:
		return "random"
	case WeightedRandomOrder:
		return "weighted"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Constraints are the optional restrictions of Sections 3 and 4.3.
// The zero value disables everything except the degeneracy guard
// (MinRows/MinCols default to 2 through Config defaults, since a
// single row or column always has residue 0 and would otherwise be a
// trivial attractor).
type Constraints struct {
	// MinRows and MinCols block removals that would shrink a cluster
	// below this many rows/columns. They realize the lower side of the
	// paper's volume constraint Cons_v and guard against the trivial
	// zero-residue degeneracy of single-row/column clusters.
	MinRows, MinCols int

	// MaxVolume, when positive, blocks insertions that would grow a
	// cluster's volume beyond it (the upper side of Cons_v).
	MaxVolume int

	// MaxOverlap, when non-negative, is the largest allowed value of
	// |I∩I'|·|J∩J'| / min(|I|·|J|, |I'|·|J'|) over all cluster pairs
	// (Cons_o). Set to 0 for fully disjoint clusters; set negative to
	// disable. Note the zero value *disables* nothing — use -1; the
	// Config constructor DefaultConfig sets -1.
	MaxOverlap float64

	// RequireRowCoverage and RequireColCoverage block removals that
	// would leave a row (column) uncovered by every cluster (Cons_c),
	// the collaborative-filtering requirement that every customer
	// belongs to some cluster.
	RequireRowCoverage bool
	RequireColCoverage bool

	// Occupancy, when positive, is the α of Definition 3.1: actions
	// whose outcome would contain a member row/column with too few
	// specified entries are blocked. Meaningful only for matrices with
	// missing values.
	Occupancy float64
}

// GainPolicy selects the objective an action's gain is measured
// against.
type GainPolicy int

const (
	// VolumeGain (the default) realizes the paper's r-residue
	// δ-cluster concept: grow clusters as large as possible while
	// keeping each cluster's residue at or below MaxResidue (δ). The
	// gain of an action is the decrease of the cluster cost
	//
	//	cost(c) = W·max(0, r_c − δ)/δ − volume(c)
	//
	// with W the number of specified matrix entries, so restoring
	// feasibility always dominates volume growth. This is the policy
	// that reproduces the paper's reported behaviour — discovered
	// residues saturate just below δ while volumes grow (e.g. Table 1
	// residues ≈ 0.5 on a 1–10 rating scale, microarray residues
	// ≈ 10–12), exactly as a pure residue-reduction gain cannot do:
	// the arithmetic-mean residue of a noisy submatrix *decreases*
	// as the submatrix shrinks, so residue-only moves collapse every
	// cluster to the minimum size.
	VolumeGain GainPolicy = iota

	// ResidueGain is the paper's literal Section 4.1 definition: the
	// gain of Action(x, c) is the reduction of c's residue. Provided
	// for ablation; see VolumeGain for why it degenerates on noisy
	// data.
	ResidueGain
)

// String names the policy.
func (p GainPolicy) String() string {
	switch p {
	case VolumeGain:
		return "volume"
	case ResidueGain:
		return "residue"
	default:
		return fmt.Sprintf("GainPolicy(%d)", int(p))
	}
}

// SeedMode selects the phase-1 seeding strategy.
type SeedMode int

const (
	// SeedRandom is the paper's phase 1: each row/column joins each
	// seed with probability p. It carries no data signal — recovery
	// then depends on smooth residue gradients from seed to cluster,
	// which exist only when the background-to-coherence contrast is
	// mild.
	SeedRandom SeedMode = iota

	// SeedAnchored is a constructive extension using the paper's own
	// Section 4.4 observation locally: two objects of the same
	// δ-cluster have a near-constant difference on the cluster's
	// attributes. A candidate seed is built from a random row pair by
	// (1) taking the columns where the pair's difference stays within
	// 2δ of its median and (2) gathering every row whose offset-
	// corrected deviation from the anchor on those columns is within
	// δ. Candidates are scored by the engine's cost and the best,
	// mutually non-duplicate k become seeds (random seeds fill any
	// shortfall). This costs O(attempts·(N+M)) and makes recovery
	// robust at any contrast.
	SeedAnchored

	// SeedAuto resolves to SeedAnchored under the VolumeGain objective
	// and to SeedRandom under ResidueGain (which has no δ to carve
	// candidates with). Anchored seeding degrades gracefully — slots
	// with no coherent candidate fall back to random seeds — whereas
	// pure random seeding cannot bootstrap discovery at all on clean
	// data (see EXPERIMENTS.md), so there is no regime where random
	// wins. DefaultConfig selects this mode.
	SeedAuto
)

// String names the seed mode.
func (s SeedMode) String() string {
	switch s {
	case SeedRandom:
		return "random"
	case SeedAnchored:
		return "anchored"
	case SeedAuto:
		return "auto"
	default:
		return fmt.Sprintf("SeedMode(%d)", int(s))
	}
}

// Config parameterizes a FLOC run.
type Config struct {
	// K is the number of clusters to maintain. Required, ≥ 1.
	K int

	// GainPolicy selects the move objective; see the constants. The
	// zero value is VolumeGain, which requires MaxResidue.
	GainPolicy GainPolicy

	// MaxResidue is δ: the residue ceiling a cluster should stay
	// under. Required (positive) under VolumeGain; ignored under
	// ResidueGain.
	MaxResidue float64

	// SeedMode selects how phase-1 seeds are constructed. The zero
	// value is the paper's random seeding.
	SeedMode SeedMode

	// SeedAttempts bounds how many anchor pairs SeedAnchored tries;
	// 0 means 100·K. A pair without a difference clump costs
	// O(M log M); one with a clump scans all N rows on the carved
	// columns, and a candidate that survives the carve is refined in
	// O(N·M). Seeding time grows linearly with the attempts, and on a
	// complete matrix like the yeast stand-in it is most of a run;
	// the default buys seed coverage with it.
	SeedAttempts int

	// SeedProbability is the p of phase 1: the probability that any
	// given row or column is included in any given seed cluster.
	// Ignored for clusters covered by SeedProbabilities. Defaults to
	// 0.1 when neither is set.
	SeedProbability float64

	// SeedProbabilities optionally assigns a distinct p per cluster —
	// the "mixed initial clustering" of Section 5.1 that lets FLOC
	// discover both large and small clusters quickly. When shorter
	// than K, remaining clusters use SeedProbability.
	SeedProbabilities []float64

	// SeedRowProbability and SeedColProbability, when positive,
	// override SeedProbability separately for rows and columns. The
	// paper's synthetic experiments seed 0.05·N rows and 0.2·M columns
	// per cluster, which needs this asymmetry.
	SeedRowProbability float64
	SeedColProbability float64

	// Order selects the action ordering of Section 5.2; the paper's
	// best results use WeightedRandomOrder.
	Order Order

	// Constraints are the optional blocking constraints.
	Constraints Constraints

	// MaxIterations caps phase 2 as a safety net; the algorithm
	// normally terminates on its own after ~10 iterations (Table 2).
	// Defaults to 200.
	MaxIterations int

	// Seed drives all randomness (seeding and ordering); equal seeds
	// give bit-identical runs.
	Seed int64

	// Polish runs a final per-cluster cleanup after phase 2
	// terminates: greedy single-member removals until no removal
	// improves the cluster's cost. Phase 2 grants each row/column one
	// action per iteration across all k clusters, so terminal states
	// can retain members whose removal is clearly profitable but was
	// never that item's best global action. See polish.go. Enabled by
	// DefaultConfig.
	Polish bool

	// PolishMaxResidue, when positive, replaces MaxResidue (δ) during
	// the polish pass. Setting it below MaxResidue explores with a
	// generous coherence budget and then trims each cluster to a
	// stricter one — members that only marginally fit are shed,
	// trading a little recall for precision.
	PolishMaxResidue float64

	// Workers is the number of goroutines the phase-2 decide phase
	// shards its (M+N)·K gain evaluations across. 0 (the zero value)
	// means GOMAXPROCS; 1 keeps the decide phase on the calling
	// goroutine; negative is an error. The worker count NEVER affects
	// the result: every decision is evaluated against the frozen
	// iteration-start state with exact toggle reversal and the shards
	// merge by item index, so runs with any two worker counts are
	// bit-identical — fingerprints, traces and checkpoints included
	// (proven by the differential harness in parallel_test.go). For
	// the same reason Workers is excluded from the checkpoint's
	// ConfigSum: a checkpoint written at one worker count may resume
	// at any other.
	Workers int
}

// DefaultConfig returns a Config with the paper's recommended
// settings: the volume-growth objective with residue ceiling
// maxResidue, weighted random ordering, a 2×2 size floor, overlap
// unconstrained.
func DefaultConfig(k int, maxResidue float64) Config {
	return Config{
		K:               k,
		GainPolicy:      VolumeGain,
		MaxResidue:      maxResidue,
		SeedMode:        SeedAuto,
		SeedProbability: 0.1,
		Order:           WeightedRandomOrder,
		Polish:          true,
		Constraints: Constraints{
			MinRows:    2,
			MinCols:    2,
			MaxOverlap: -1,
		},
		MaxIterations: 200,
	}
}

// validate normalizes cfg and reports configuration errors.
func (cfg *Config) validate(rows, cols int) error {
	if cfg.K < 1 {
		return fmt.Errorf("floc: K = %d, want ≥ 1", cfg.K)
	}
	switch cfg.GainPolicy {
	case VolumeGain:
		if !(cfg.MaxResidue > 0) {
			return fmt.Errorf("floc: GainPolicy VolumeGain needs MaxResidue (δ) > 0; got %v", cfg.MaxResidue)
		}
	case ResidueGain:
		// MaxResidue unused.
	default:
		return fmt.Errorf("floc: unknown gain policy %d", int(cfg.GainPolicy))
	}
	if rows == 0 || cols == 0 {
		return fmt.Errorf("floc: matrix is %dx%d; need at least one row and column", rows, cols)
	}
	if stats.IsZero(cfg.SeedProbability) && stats.IsZero(cfg.SeedRowProbability) && len(cfg.SeedProbabilities) == 0 {
		cfg.SeedProbability = 0.1
	}
	if !unitInterval(cfg.SeedProbability) {
		return fmt.Errorf("floc: SeedProbability = %v, want in [0, 1]", cfg.SeedProbability)
	}
	if !unitInterval(cfg.SeedRowProbability) {
		return fmt.Errorf("floc: SeedRowProbability = %v, want in [0, 1]", cfg.SeedRowProbability)
	}
	if !unitInterval(cfg.SeedColProbability) {
		return fmt.Errorf("floc: SeedColProbability = %v, want in [0, 1]", cfg.SeedColProbability)
	}
	for i, p := range cfg.SeedProbabilities {
		if !unitInterval(p) {
			return fmt.Errorf("floc: SeedProbabilities[%d] = %v, want in [0, 1]", i, p)
		}
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 200
	}
	if cfg.Constraints.MinRows < 0 || cfg.Constraints.MinCols < 0 {
		return fmt.Errorf("floc: negative size floor")
	}
	if !unitInterval(cfg.Constraints.Occupancy) {
		return fmt.Errorf("floc: Occupancy = %v, want in [0, 1]", cfg.Constraints.Occupancy)
	}
	if math.IsNaN(cfg.Constraints.MaxOverlap) {
		// Seeding's overlap repair would read NaN as a zero budget and
		// the decide phase as no budget at all.
		return fmt.Errorf("floc: MaxOverlap is NaN; want ≥ 0, or negative to disable")
	}
	if o := cfg.Order; o != FixedOrder && o != RandomOrder && o != WeightedRandomOrder {
		return fmt.Errorf("floc: unknown order %d", int(o))
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("floc: Workers = %d, want ≥ 0 (0 means GOMAXPROCS)", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// unitInterval reports whether p lies in [0, 1]. It is written so
// that NaN, which fails every comparison, is refused with the
// out-of-range values rather than slipping through a p < 0 || p > 1
// test.
func unitInterval(p float64) bool { return p >= 0 && p <= 1 }

// seedRowProb returns the row-inclusion probability for cluster c.
func (cfg *Config) seedRowProb(c int) float64 {
	if c < len(cfg.SeedProbabilities) {
		return cfg.SeedProbabilities[c]
	}
	if cfg.SeedRowProbability > 0 {
		return cfg.SeedRowProbability
	}
	return cfg.SeedProbability
}

// seedColProb returns the column-inclusion probability for cluster c.
func (cfg *Config) seedColProb(c int) float64 {
	if c < len(cfg.SeedProbabilities) {
		return cfg.SeedProbabilities[c]
	}
	if cfg.SeedColProbability > 0 {
		return cfg.SeedColProbability
	}
	return cfg.SeedProbability
}
