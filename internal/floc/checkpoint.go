package floc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// Checkpoint is a resumable snapshot of a FLOC run, cut at a phase-2
// iteration boundary. Boundaries are the only states a checkpoint may
// capture: iterate() normalizes every cluster there with a wholesale
// Recompute, so the state is reconstructible bit-for-bit from
// membership alone. (Seeding state is built incrementally and is not
// boundary-normalized, which is why no checkpoint exists before the
// first improving iteration completes.)
//
// A checkpoint pins the run's randomness by (Seed, Draws): every value
// the engine's RNG produces is derived from counted Int63 draws, so
// stats.NewRNGAt reconstructs the generator at the exact stream
// position (see internal/stats).
type Checkpoint struct {
	// Seed is the Config.Seed the run started from.
	Seed int64
	// Draws is the RNG stream position at the boundary.
	Draws uint64

	// Iterations counts the improving iterations completed.
	Iterations int
	// Actions and GainEvals carry the Result counters at the boundary.
	Actions   int64
	GainEvals int64
	// Trace is the residue trace so far, seed entry included; its
	// length is always Iterations+1.
	Trace []float64

	// Clusters holds each cluster's membership in internal insertion
	// order — NOT sorted order. Floating-point aggregates accumulate
	// in insertion order, so this ordering is what makes a resumed run
	// bit-identical to the uninterrupted one (see cluster.FromOrdered).
	Clusters []ClusterState

	// ConfigSum fingerprints the normalized Config the run used, with
	// MaxIterations deliberately excluded so a capped run's checkpoint
	// can resume under a larger budget. MatrixSum fingerprints the
	// data matrix (shape, missingness pattern and exact entry bits).
	// Resume refuses a checkpoint whose sums do not match.
	ConfigSum uint64
	MatrixSum uint64
}

// ClusterState is one cluster's membership in insertion order.
type ClusterState struct {
	Rows []int
	Cols []int
}

// exportCheckpoint snapshots the engine at an iteration boundary.
func (e *engine) exportCheckpoint(iterations int, trace []float64) *Checkpoint {
	ck := &Checkpoint{
		Seed:       e.cfg.Seed,
		Draws:      e.rng.Draws(),
		Iterations: iterations,
		Actions:    e.actions,
		GainEvals:  e.gainEvals,
		Trace:      append([]float64(nil), trace...),
		Clusters:   make([]ClusterState, len(e.clusters)),
		ConfigSum:  configSum(e.cfg),
		MatrixSum:  e.matrixSum(),
	}
	for c, cl := range e.clusters {
		ck.Clusters[c] = ClusterState{Rows: cl.OrderedRows(), Cols: cl.OrderedCols()}
	}
	return ck
}

// resumeEngine rebuilds an engine from a checkpoint, initializing the
// guarded residue/cost caches with the same per-cluster rebuild loop
// iterate() runs at a boundary, so every cached float is bit-equal to
// the interrupted run's (deltavet:writer). msum is matrixSum(m), which
// the caller has already computed and the engine keeps for the
// checkpoints it cuts.
func resumeEngine(m *matrix.Matrix, cfg *Config, ck *Checkpoint, msum uint64) (*engine, error) {
	if got := configSum(cfg); ck.ConfigSum != got {
		return nil, fmt.Errorf("floc: checkpoint was written under a different configuration (sum %016x, want %016x)", ck.ConfigSum, got)
	}
	if ck.MatrixSum != msum {
		return nil, fmt.Errorf("floc: checkpoint was written for a different matrix (sum %016x, want %016x)", ck.MatrixSum, msum)
	}
	if len(ck.Clusters) != cfg.K {
		return nil, fmt.Errorf("floc: checkpoint has %d clusters, configuration wants %d", len(ck.Clusters), cfg.K)
	}
	if ck.Iterations < 0 || len(ck.Trace) != ck.Iterations+1 {
		return nil, fmt.Errorf("floc: checkpoint trace has %d entries for %d iterations, want %d", len(ck.Trace), ck.Iterations, ck.Iterations+1)
	}
	e := &engine{
		m:         m,
		cfg:       cfg,
		rng:       stats.NewRNGAt(ck.Seed, ck.Draws),
		coverRow:  make([]int, m.Rows()),
		coverCol:  make([]int, m.Cols()),
		gainEvals: ck.GainEvals,
		actions:   ck.Actions,
		mSum:      msum,
		mSumSet:   true,
	}
	e.w = float64(m.SpecifiedCount())
	// Same discipline as newEngine: freeze the derived matrix caches
	// from this goroutine before decide workers can share the matrix,
	// and enable the dense evaluation pack (bit copies — the resumed
	// trajectory stays byte-identical to the uninterrupted one).
	m.EnsureDerived()
	e.clusters = make([]*cluster.Cluster, cfg.K)
	e.residues = make([]float64, cfg.K)
	e.costs = make([]float64, cfg.K)
	for c := range ck.Clusters {
		cl, err := cluster.FromOrdered(m, ck.Clusters[c].Rows, ck.Clusters[c].Cols)
		if err != nil {
			return nil, fmt.Errorf("floc: checkpoint cluster %d: %w", c, err)
		}
		cl.EnablePack()
		if cfg.GainMode == GainIncremental {
			// Checkpoints are cut at iteration boundaries, where the
			// residue masses are refresh-exact — rebuilding them from the
			// restored sums reproduces exactly the state an uninterrupted
			// incremental run carries at this boundary.
			cl.EnableResidueAggregates(cfg.ResidueMean)
		}
		e.clusters[c] = cl
		e.residues[c] = cl.ResidueWith(cfg.ResidueMean)
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
		e.assertInvariants("resume")
	}
	return e, nil
}

// configSum fingerprints a normalized Config with FNV-64a over the
// exact bits of every field that shapes the run's trajectory.
// MaxIterations is deliberately excluded: it caps the run without
// altering any iteration, so resuming a capped run under a larger
// budget is legal and bit-identical as far as the cap allowed.
// Workers is excluded for the same reason: the decide phase's worker
// count never changes a bit of the trajectory (see Config.Workers),
// so a checkpoint written at one worker count resumes at any other.
// GainMode is excluded too, though for a subtler reason: checkpoints
// are cut at iteration boundaries, where the incremental tier's
// residue masses are refreshed to exactly what the exact tier
// computes, so a boundary state written under either mode is a valid
// starting state for the other — resuming merely picks the scoring
// tier for the iterations still to come (see Config.GainMode).
func configSum(cfg *Config) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	o := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	u(uint64(cfg.K))
	u(uint64(cfg.GainPolicy))
	f(cfg.MaxResidue)
	u(uint64(cfg.SeedMode))
	u(uint64(cfg.SeedAttempts))
	f(cfg.SeedProbability)
	u(uint64(len(cfg.SeedProbabilities)))
	for _, p := range cfg.SeedProbabilities {
		f(p)
	}
	f(cfg.SeedRowProbability)
	f(cfg.SeedColProbability)
	u(uint64(cfg.Order))
	u(uint64(cfg.Constraints.MinRows))
	u(uint64(cfg.Constraints.MinCols))
	u(uint64(cfg.Constraints.MaxVolume))
	f(cfg.Constraints.MaxOverlap)
	o(cfg.Constraints.RequireRowCoverage)
	o(cfg.Constraints.RequireColCoverage)
	f(cfg.Constraints.Occupancy)
	u(uint64(cfg.Seed))
	u(uint64(cfg.ResidueMean))
	o(cfg.RecomputeOnApply)
	o(cfg.Polish)
	f(cfg.PolishMaxResidue)
	o(cfg.ApproximateGain)
	return h.Sum64()
}

// matrixSum returns matrixSum(e.m), hashing the matrix at most once
// per run: a run cuts a checkpoint at every improving boundary under
// KeepFinalCheckpoint, and re-hashing an unchanged matrix for each
// costs O(N·M). The cache lives on the engine, not on the Matrix,
// because a served matrix may be mutated between runs.
func (e *engine) matrixSum() uint64 {
	if !e.mSumSet {
		e.mSum, e.mSumSet = matrixSum(e.m), true
	}
	return e.mSum
}

// matrixSum fingerprints a matrix with FNV-64a over its shape and the
// exact bits of every entry (missing entries hash as a marker, not as
// their NaN payload, so any NaN encoding reads as the same matrix).
func matrixSum(m *matrix.Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u(uint64(m.Rows()))
	u(uint64(m.Cols()))
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if !m.IsSpecified(i, j) {
				u(1)
				continue
			}
			u(0)
			u(math.Float64bits(m.Get(i, j)))
		}
	}
	return h.Sum64()
}

// Checkpoint file format (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "DCKP"
//	4       4     format version (uint32, currently 1)
//	8       8     payload length (uint64)
//	16      n     payload (see MarshalBinary)
//	16+n    32    SHA-256 of the payload
//
// The checksum makes torn or corrupted writes detectable: a reader
// verifies it before trusting a single payload byte.
const (
	checkpointMagic   = "DCKP"
	checkpointVersion = 1
)

// MarshalBinary encodes the checkpoint in the versioned, checksummed
// format above. The encoding is deterministic: equal checkpoints
// produce equal bytes.
func (ck *Checkpoint) MarshalBinary() ([]byte, error) {
	var p []byte
	u := func(v uint64) { p = binary.LittleEndian.AppendUint64(p, v) }
	u(uint64(ck.Seed))
	u(ck.Draws)
	u(uint64(ck.Iterations))
	u(uint64(ck.Actions))
	u(uint64(ck.GainEvals))
	u(ck.ConfigSum)
	u(ck.MatrixSum)
	u(uint64(len(ck.Trace)))
	for _, v := range ck.Trace {
		u(math.Float64bits(v))
	}
	u(uint64(len(ck.Clusters)))
	for _, cs := range ck.Clusters {
		u(uint64(len(cs.Rows)))
		for _, i := range cs.Rows {
			u(uint64(i))
		}
		u(uint64(len(cs.Cols)))
		for _, j := range cs.Cols {
			u(uint64(j))
		}
	}

	out := make([]byte, 0, 16+len(p)+sha256.Size)
	out = append(out, checkpointMagic...)
	out = binary.LittleEndian.AppendUint32(out, checkpointVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
	out = append(out, p...)
	sum := sha256.Sum256(p)
	out = append(out, sum[:]...)
	return out, nil
}

// UnmarshalBinary decodes and verifies a checkpoint encoding. It
// rejects bad magic, unknown versions, truncation and checksum
// mismatches before interpreting any payload field.
func (ck *Checkpoint) UnmarshalBinary(data []byte) error {
	if len(data) < 16 || !bytes.Equal(data[:4], []byte(checkpointMagic)) {
		return fmt.Errorf("floc: not a checkpoint file (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != checkpointVersion {
		return fmt.Errorf("floc: unsupported checkpoint version %d (want %d)", v, checkpointVersion)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if uint64(len(data)-16) < n || len(data)-16-int(n) < sha256.Size {
		return fmt.Errorf("floc: truncated checkpoint (torn write?)")
	}
	payload := data[16 : 16+n]
	var sum [sha256.Size]byte
	copy(sum[:], data[16+n:])
	if sha256.Sum256(payload) != sum {
		return fmt.Errorf("floc: checkpoint checksum mismatch (torn or corrupted write?)")
	}

	dec := ckDecoder{p: payload}
	ck.Seed = int64(dec.u64())
	ck.Draws = dec.u64()
	ck.Iterations = int(dec.u64())
	ck.Actions = int64(dec.u64())
	ck.GainEvals = int64(dec.u64())
	ck.ConfigSum = dec.u64()
	ck.MatrixSum = dec.u64()
	ck.Trace = make([]float64, dec.length())
	for i := range ck.Trace {
		ck.Trace[i] = math.Float64frombits(dec.u64())
	}
	ck.Clusters = make([]ClusterState, dec.length())
	for c := range ck.Clusters {
		ck.Clusters[c].Rows = dec.ints()
		ck.Clusters[c].Cols = dec.ints()
	}
	if dec.err != nil {
		return fmt.Errorf("floc: malformed checkpoint payload: %w", dec.err)
	}
	if len(dec.p) != 0 {
		return fmt.Errorf("floc: malformed checkpoint payload: %d trailing bytes", len(dec.p))
	}
	return nil
}

// ckDecoder consumes a checksummed payload front to back, latching the
// first error.
type ckDecoder struct {
	p   []byte
	err error
}

func (d *ckDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.p) < 8 {
		d.err = fmt.Errorf("short read: %d bytes left, want 8", len(d.p))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[:8])
	d.p = d.p[8:]
	return v
}

// length reads a collection length and bounds it by the remaining
// payload, so a corrupt length cannot force a huge allocation.
func (d *ckDecoder) length() int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.p)/8) {
		d.err = fmt.Errorf("collection length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

func (d *ckDecoder) ints() []int {
	out := make([]int, d.length())
	for i := range out {
		out[i] = int(d.u64())
	}
	return out
}

// EncodeCheckpoint renders the checkpoint in the versioned,
// checksummed DCKP byte format — the same bytes WriteCheckpointFile
// persists, exposed for transports that are not files (checkpoint
// replication between deltaserve nodes ships these bytes over HTTP).
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	return ck.MarshalBinary()
}

// DecodeCheckpoint parses and verifies a DCKP encoding produced by
// EncodeCheckpoint (or read back from a checkpoint file). It rejects
// bad magic, unknown versions, truncation and checksum mismatches
// before interpreting any payload field, so a torn or hostile
// replicated checkpoint fails loudly instead of resuming from garbage.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := ck.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return ck, nil
}

// WriteCheckpointFile writes the checkpoint to path atomically: the
// encoding goes to a temporary file in the same directory, is fsynced,
// and is renamed over path, so a crash mid-write can never leave a
// half-written checkpoint under the final name. (The deltachaos
// "checkpoint-write" fault point can override this with a torn,
// non-atomic write to prove readers reject it.)
func WriteCheckpointFile(path string, ck *Checkpoint) error {
	data, err := ck.MarshalBinary()
	if err != nil {
		return fmt.Errorf("floc: encoding checkpoint: %w", err)
	}
	if chaosEnabled {
		if handled, cerr := chaosWriteFile(path, data); handled {
			return cerr
		}
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("floc: writing checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("floc: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("floc: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("floc: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("floc: publishing checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpointFile reads and verifies a checkpoint written by
// WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("floc: reading checkpoint: %w", err)
	}
	ck := new(Checkpoint)
	if err := ck.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return ck, nil
}
