// Package deltacluster is a Go implementation of the δ-cluster model
// and the FLOC algorithm from "δ-Clusters: Capturing Subspace
// Correlation in a Large Data Set" (Yang, Wang, Wang, Yu — ICDE 2002),
// together with every substrate the paper builds on: the Cheng &
// Church biclustering baseline, the CLIQUE subspace clustering
// algorithm and the derived-attribute "alternative algorithm", the
// synthetic workload generators of the paper's evaluation, and the
// recall/precision evaluation metrics.
//
// # The model
//
// A δ-cluster is a submatrix — a subset of objects (rows) and a subset
// of attributes (columns) of a data matrix that may contain missing
// values — whose entries exhibit *shifting coherence*: every object
// may carry its own additive bias, every attribute its own offset,
// and coherence is measured by how little of each entry remains once
// those biases (the "bases") are accounted for. That remainder is the
// entry's residue,
//
//	r_ij = d_ij − d_iJ − d_Ij + d_IJ,
//
// and the cluster's residue is the mean |r_ij| over its specified
// entries. Objects far apart in Euclidean distance can form a perfect
// (zero-residue) δ-cluster — the paper's motivating example.
// Amplification (multiplicative) coherence reduces to shifting
// coherence through LogTransform.
//
// # Quick start
//
//	m, err := deltacluster.ReadMatrix(f, deltacluster.IOOptions{})
//	cfg := deltacluster.DefaultFLOCConfig(10, 15) // k clusters, residue budget δ
//	res, err := deltacluster.FLOC(m, cfg)
//	for _, c := range deltacluster.Significant(res.Clusters, cfg.MaxResidue) {
//		fmt.Println(c.Stats())
//	}
//
// See the examples/ directory for complete programs: a quickstart on
// the paper's own worked example, a collaborative-filtering scenario,
// a gene-expression scenario with the Cheng & Church comparison, and
// constrained clustering.
package deltacluster

import (
	"context"
	"io"

	"deltacluster/internal/bicluster"
	"deltacluster/internal/clique"
	"deltacluster/internal/cluster"
	"deltacluster/internal/eval"
	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/resilience"
	"deltacluster/internal/stats"
	"deltacluster/internal/synth"
)

// Matrix is a dense rows×cols data matrix with optional missing
// entries (NaN). Rows are objects, columns are attributes.
type Matrix = matrix.Matrix

// IOOptions controls delimited-text matrix input/output.
type IOOptions = matrix.IOOptions

// NewMatrix returns a rows×cols matrix with every entry missing.
func NewMatrix(rows, cols int) *Matrix { return matrix.New(rows, cols) }

// MatrixFromRows builds a matrix from row slices; NaN marks missing
// entries.
func MatrixFromRows(rows [][]float64) (*Matrix, error) { return matrix.NewFromRows(rows) }

// ReadMatrix parses a delimited matrix (CSV by default).
func ReadMatrix(r io.Reader, opts IOOptions) (*Matrix, error) { return matrix.Read(r, opts) }

// QuarantineReport is the audit trail of a lenient (IOOptions.
// Quarantine) matrix load: how many records were seen and which were
// dropped, with reasons.
type QuarantineReport = matrix.QuarantineReport

// QuarantinedRecord describes one record dropped by lenient ingestion.
type QuarantinedRecord = matrix.QuarantinedRecord

// ReadMatrixReport is ReadMatrix returning the quarantine audit trail
// alongside the matrix.
func ReadMatrixReport(r io.Reader, opts IOOptions) (*Matrix, *QuarantineReport, error) {
	return matrix.ReadReport(r, opts)
}

// WriteMatrix renders a matrix as delimited text.
func WriteMatrix(w io.Writer, m *Matrix, opts IOOptions) error { return matrix.Write(w, m, opts) }

// MatrixBinaryContentType is the MIME type of the binary (DCMX) matrix
// wire format — the Content-Type of deltaserve binary submissions.
const MatrixBinaryContentType = matrix.BinaryContentType

// EncodeMatrixBinary renders m in the canonical DCMX binary format:
// versioned, checksummed, a bitmap of the specified entries followed
// by their packed values, so missing entries cost one bit each.
// Equal matrices encode to equal bytes.
func EncodeMatrixBinary(m *Matrix) []byte { return matrix.EncodeBinary(m) }

// DecodeMatrixBinary parses and verifies a DCMX section. maxEntries,
// when positive, bounds rows×cols before any allocation happens.
func DecodeMatrixBinary(data []byte, maxEntries int) (*Matrix, error) {
	return matrix.DecodeBinary(data, maxEntries)
}

// WriteMatrixBinary writes m to w in the DCMX binary format.
func WriteMatrixBinary(w io.Writer, m *Matrix) error { return matrix.WriteBinary(w, m) }

// ReadMatrixBinary reads and verifies a DCMX section from r.
func ReadMatrixBinary(r io.Reader, maxEntries int) (*Matrix, error) {
	return matrix.ReadBinary(r, maxEntries)
}

// LogTransform converts amplification coherence to shifting coherence
// by taking the natural logarithm of every specified entry (Section 3
// of the paper). Entries must be positive.
func LogTransform(m *Matrix) (*Matrix, error) { return matrix.LogTransform(m) }

// DeriveDifferences builds the pairwise-difference attribute matrix of
// the paper's Section 4.4 alternative algorithm, returning the derived
// matrix and the original-attribute pair behind each derived column.
func DeriveDifferences(m *Matrix) (*Matrix, [][2]int) { return matrix.DeriveDifferences(m) }

// Cluster is a mutable δ-cluster over a data matrix, maintaining its
// bases, residue, volume, occupancy and diameter incrementally.
type Cluster = cluster.Cluster

// ClusterSpec is an immutable snapshot of a cluster's membership.
type ClusterSpec = cluster.Spec

// ClusterStats summarizes a cluster (the quantities of the paper's
// Table 1).
type ClusterStats = cluster.Stats

// ResidueMean selects arithmetic (the paper's Definition 3.5) or
// squared (Cheng & Church) residue aggregation.
type ResidueMean = cluster.ResidueMean

// Residue aggregation modes.
const (
	ArithmeticMean = cluster.ArithmeticMean
	SquaredMean    = cluster.SquaredMean
)

// NewCluster returns an empty δ-cluster over m.
func NewCluster(m *Matrix) *Cluster { return cluster.New(m) }

// ClusterFromSpec builds a cluster over m from explicit row and column
// sets.
func ClusterFromSpec(m *Matrix, rows, cols []int) *Cluster {
	return cluster.FromSpec(m, rows, cols)
}

// Residue computes the residue of the δ-cluster defined by rows×cols
// of m (Definition 3.5).
func Residue(m *Matrix, rows, cols []int) float64 { return cluster.ResidueOf(m, rows, cols) }

// PearsonR is the global correlation measure the paper contrasts the
// δ-cluster model against; NaN entries are skipped.
func PearsonR(a, b []float64) float64 { return stats.PearsonR(a, b) }

// FLOCConfig parameterizes the FLOC algorithm. See DefaultFLOCConfig
// for the recommended settings.
type FLOCConfig = floc.Config

// FLOCResult reports a FLOC run's clusters and statistics.
type FLOCResult = floc.Result

// FLOCConstraints are the optional blocking constraints of the model
// (size floors and ceilings, overlap budget, coverage, occupancy α).
type FLOCConstraints = floc.Constraints

// Order selects the action ordering of the paper's Section 5.2.
type Order = floc.Order

// Action orders.
const (
	FixedOrder          = floc.FixedOrder
	RandomOrder         = floc.RandomOrder
	WeightedRandomOrder = floc.WeightedRandomOrder
)

// GainPolicy selects the move objective; see the floc package docs.
type GainPolicy = floc.GainPolicy

// Gain policies.
const (
	VolumeGain  = floc.VolumeGain
	ResidueGain = floc.ResidueGain
)

// GainMode selects the decide phase's scoring tier; see the floc
// package docs.
type GainMode = floc.GainMode

// Gain modes: exact O(volume) scoring (the bit-identical default) or
// incremental O(row)/O(col) aggregate ranking with the exact kernel
// retained for every applied action.
const (
	GainExact       = floc.GainExact
	GainIncremental = floc.GainIncremental
)

// SeedMode selects the phase-1 seeding strategy.
type SeedMode = floc.SeedMode

// Seed modes.
const (
	SeedRandom   = floc.SeedRandom
	SeedAnchored = floc.SeedAnchored
	SeedAuto     = floc.SeedAuto
)

// DefaultFLOCConfig returns the recommended configuration: k clusters,
// residue budget δ = maxResidue (≈ 2.5–3× the residue you expect of a
// genuine cluster works well), auto seeding, weighted random order.
func DefaultFLOCConfig(k int, maxResidue float64) FLOCConfig {
	return floc.DefaultConfig(k, maxResidue)
}

// FLOC runs the FLOC algorithm on m.
func FLOC(m *Matrix, cfg FLOCConfig) (*FLOCResult, error) { return floc.Run(m, cfg) }

// Significant filters a clustering to clusters carrying real evidence
// of coherence (≥ 3×3 and residue ≤ maxResidue).
func Significant(clusters []*Cluster, maxResidue float64) []*Cluster {
	return floc.Significant(clusters, maxResidue)
}

// FLOCPartialResult is the typed error a cancelled or deadlined FLOC
// run returns: the best-so-far clustering, the stop reason, and (when
// the run was interrupted at an iteration boundary) a resumable
// checkpoint. Recover it with errors.As.
type FLOCPartialResult = floc.PartialResult

// StopReason says why an interrupted run stopped.
type StopReason = floc.StopReason

// Stop reasons.
const (
	StopCancelled = floc.StopCancelled
	StopDeadline  = floc.StopDeadline
)

// FLOCCheckpoint is a resumable snapshot of a FLOC run at an
// iteration boundary. Same seed + resume reproduces the uninterrupted
// run bit for bit.
type FLOCCheckpoint = floc.Checkpoint

// FLOCRunOptions controls checkpointing, resumption and warm-starting
// of a FLOC run.
type FLOCRunOptions = floc.RunOptions

// FLOCWarmStart seeds a run from a parent run's final checkpoint
// instead of cold seeding — the deltastream reclustering path. With
// an unchanged matrix the warm run reproduces the parent bit for bit;
// after appends, updates or retractions it re-anchors the parent's
// clustering and pays only the corrective iterations.
type FLOCWarmStart = floc.WarmStart

// FLOCContext runs FLOC under a context: cancellation or deadline
// expiry stops the run within one iteration, returning a
// *FLOCPartialResult error carrying the best-so-far clustering.
func FLOCContext(ctx context.Context, m *Matrix, cfg FLOCConfig) (*FLOCResult, error) {
	return floc.RunContext(ctx, m, cfg)
}

// FLOCWithOptions is FLOCContext with checkpoint/resume control.
func FLOCWithOptions(ctx context.Context, m *Matrix, cfg FLOCConfig, opts FLOCRunOptions) (*FLOCResult, error) {
	return floc.RunWithOptions(ctx, m, cfg, opts)
}

// WriteCheckpointFile atomically writes a checkpoint to path
// (temp file + fsync + rename) in the versioned, checksummed binary
// format.
func WriteCheckpointFile(path string, ck *FLOCCheckpoint) error {
	return floc.WriteCheckpointFile(path, ck)
}

// ReadCheckpointFile reads and verifies a checkpoint written by
// WriteCheckpointFile, rejecting torn or corrupted files.
func ReadCheckpointFile(path string) (*FLOCCheckpoint, error) {
	return floc.ReadCheckpointFile(path)
}

// SupervisePolicy parameterizes a fault-tolerant FLOC campaign: number
// of restart attempts, per-attempt deadline, panic retries with seed
// rotation and capped backoff.
type SupervisePolicy = resilience.Policy

// SuperviseReport is the outcome of a supervised campaign: the best
// result, per-attempt reports, and whether the campaign degraded.
type SuperviseReport = resilience.Report

// SuperviseAttemptReport records how one supervised attempt went.
type SuperviseAttemptReport = resilience.AttemptReport

// SuperviseFLOC runs a supervised multi-seed FLOC campaign: attempt i
// runs with seed cfg.Seed+i, panics are recovered and retried with
// rotated seeds, and when the context's budget expires the best
// completed attempt is returned instead of nothing.
func SuperviseFLOC(ctx context.Context, m *Matrix, cfg FLOCConfig, policy SupervisePolicy) (*SuperviseReport, error) {
	return resilience.SuperviseFLOC(ctx, m, cfg, policy)
}

// BiclusterConfig parameterizes the Cheng & Church baseline.
type BiclusterConfig = bicluster.Config

// BiclusterResult reports the mined biclusters.
type BiclusterResult = bicluster.Result

// ChengChurch runs the Cheng & Church biclustering algorithm
// (reference [3] of the paper) on m.
func ChengChurch(m *Matrix, cfg BiclusterConfig) (*BiclusterResult, error) {
	return bicluster.Run(m, cfg)
}

// ChengChurchContext is ChengChurch under a context: cancellation
// between sequential mines returns a *bicluster.PartialResult error
// carrying the biclusters completed so far.
func ChengChurchContext(ctx context.Context, m *Matrix, cfg BiclusterConfig) (*BiclusterResult, error) {
	return bicluster.RunContext(ctx, m, cfg)
}

// CLIQUEConfig parameterizes the CLIQUE subspace clustering algorithm.
type CLIQUEConfig = clique.Config

// CLIQUEResult reports subspace clusters and lattice statistics.
type CLIQUEResult = clique.Result

// SubspaceCluster is one CLIQUE cluster: a subspace and its points.
type SubspaceCluster = clique.SubspaceCluster

// CLIQUE runs grid/density subspace clustering (reference [1] of the
// paper) on the rows of m.
func CLIQUE(m *Matrix, cfg CLIQUEConfig) (*CLIQUEResult, error) { return clique.Run(m, cfg) }

// CLIQUEContext is CLIQUE under a context: cancellation between
// lattice levels returns a *clique.PartialResult error carrying the
// dense units mined so far.
func CLIQUEContext(ctx context.Context, m *Matrix, cfg CLIQUEConfig) (*CLIQUEResult, error) {
	return clique.RunContext(ctx, m, cfg)
}

// AlternativeConfig parameterizes the Section 4.4 alternative
// δ-cluster algorithm.
type AlternativeConfig = clique.AltConfig

// AlternativeResult reports the recovered δ-clusters and the cost
// breakdown of the three reduction steps.
type AlternativeResult = clique.AltResult

// AlternativeDeltaClusters mines δ-clusters by the paper's reduction
// to subspace clustering over derived difference attributes.
func AlternativeDeltaClusters(m *Matrix, cfg AlternativeConfig) (*AlternativeResult, error) {
	return clique.AlternativeDeltaClusters(m, cfg)
}

// SyntheticConfig describes a synthetic matrix with embedded
// δ-clusters (the paper's Section 6.2 workloads).
type SyntheticConfig = synth.Config

// SyntheticDataset is a generated matrix plus its ground truth.
type SyntheticDataset = synth.Dataset

// GenerateSynthetic builds a synthetic dataset with embedded
// ground-truth δ-clusters.
func GenerateSynthetic(cfg SyntheticConfig, seed int64) (*SyntheticDataset, error) {
	return synth.Generate(cfg, seed)
}

// MovieLensConfig describes the MovieLens-like sparse ratings
// generator (the paper's Section 6.1.1 data set stand-in).
type MovieLensConfig = synth.MovieLensConfig

// MovieLensDataset is the generated ratings matrix plus its latent
// group structure.
type MovieLensDataset = synth.MovieLensDataset

// DefaultMovieLensConfig mirrors the real data set's shape (943 users,
// 1682 movies, ~100k ratings).
func DefaultMovieLensConfig() MovieLensConfig { return synth.DefaultMovieLensConfig() }

// GenerateMovieLens builds the ratings stand-in.
func GenerateMovieLens(cfg MovieLensConfig, seed int64) (*MovieLensDataset, error) {
	return synth.MovieLens(cfg, seed)
}

// YeastConfig describes the yeast microarray stand-in (the paper's
// Section 6.1.2 data set).
type YeastConfig = synth.YeastConfig

// DefaultYeastConfig mirrors the real data set's shape (2884 genes,
// 17 conditions).
func DefaultYeastConfig() YeastConfig { return synth.DefaultYeastConfig() }

// GenerateYeast builds the microarray stand-in with ground-truth
// coherent modules.
func GenerateYeast(cfg YeastConfig, seed int64) (*SyntheticDataset, error) {
	return synth.Yeast(cfg, seed)
}

// RecallPrecision computes the paper's Section 6.2.2 quality metrics:
// with U the entries of the embedded clusters and V those of the
// discovered ones, recall = |U∩V|/|U| and precision = |U∩V|/|V|.
func RecallPrecision(m *Matrix, embedded, discovered []ClusterSpec) (recall, precision float64) {
	return eval.RecallPrecision(m, embedded, discovered)
}

// Specs extracts the membership specs of a slice of clusters.
func Specs(clusters []*Cluster) []ClusterSpec { return eval.Specs(clusters) }

// Summary aggregates per-cluster statistics (Table 1 of the paper).
type Summary = eval.Summary

// Summarize computes aggregate statistics for a clustering.
func Summarize(clusters []*Cluster) Summary { return eval.Summarize(clusters) }

// Match pairs an embedded cluster with its best-overlapping discovered
// cluster.
type Match = eval.Match

// BestMatches pairs every embedded cluster with the discovered cluster
// sharing the largest Jaccard entry overlap.
func BestMatches(m *Matrix, embedded, discovered []ClusterSpec) []Match {
	return eval.BestMatches(m, embedded, discovered)
}
