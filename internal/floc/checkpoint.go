package floc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"deltacluster/internal/matrix"
)

// Checkpoint is a resumable snapshot of a FLOC run, cut at an
// iteration boundary. A run has one at every improving boundary:
// iterate() normalizes every cluster there with a wholesale Recompute,
// so the state is reconstructible bit-for-bit from membership alone.
//
// Boundary 0 of a cold run is the seed checkpoint. Phase 1's seed
// clustering is built incrementally and is not boundary-normalized,
// but it is a pure function of (matrix, config, seed), so the seed
// checkpoint holds no cluster states and no matrix sum: starting from
// it re-runs seeding on the given matrix, which is the cold run
// itself — bit-identical on the same matrix, and a cold run under the
// parent's seed on a mutated one. Every other checkpoint holds exactly
// K cluster states. Boundary 0 of a warm start is one of those: its
// clusters are the re-anchored parent memberships, normalized before
// phase 2 like any boundary.
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
	// order — NOT sorted order — and is empty in a seed checkpoint.
	// Floating-point aggregates accumulate in insertion order, so this
	// ordering is what makes a resumed run bit-identical to the
	// uninterrupted one (see cluster.FromOrdered).
	Clusters []ClusterState

	// ConfigSum fingerprints the normalized Config the run used, with
	// MaxIterations deliberately excluded so a capped run's checkpoint
	// can resume under a larger budget. MatrixSum fingerprints the
	// data matrix (shape, missingness pattern and exact entry bits); it
	// is 0 in a seed checkpoint. Resume refuses a checkpoint whose sums
	// do not match.
	ConfigSum uint64
	MatrixSum uint64
}

// ClusterState is one cluster's membership in insertion order.
type ClusterState struct {
	Rows []int
	Cols []int
}

// exportCheckpoint snapshots the engine at an iteration boundary: the
// seed checkpoint while the clusters are still phase 1's.
func (e *engine) exportCheckpoint(iterations int, trace []float64) *Checkpoint {
	ck := &Checkpoint{
		Seed:       e.cfg.Seed,
		Draws:      e.rng.Draws(),
		Iterations: iterations,
		Actions:    e.actions,
		GainEvals:  e.gainEvals,
		Trace:      append([]float64(nil), trace...),
		ConfigSum:  configSum(e.cfg),
	}
	if e.seeded {
		return ck
	}
	ck.MatrixSum = e.matrixSum()
	ck.Clusters = make([]ClusterState, len(e.clusters))
	for c, cl := range e.clusters {
		ck.Clusters[c] = ClusterState{Rows: cl.OrderedRows(), Cols: cl.OrderedCols()}
	}
	return ck
}

// validate checks that a checkpoint can start a run under cfg: the
// configuration sums match, and it holds K cluster states or none.
func (ck *Checkpoint) validate(cfg *Config) error {
	if got := configSum(cfg); ck.ConfigSum != got {
		return fmt.Errorf("floc: checkpoint was written under a different configuration (sum %016x, want %016x)", ck.ConfigSum, got)
	}
	if n := len(ck.Clusters); n != 0 && n != cfg.K {
		return fmt.Errorf("floc: checkpoint has %d clusters, configuration wants %d", n, cfg.K)
	}
	return ck.wellFormed()
}

// wellFormed checks the checkpoint's own shape: a trace entry per
// boundary, and no cluster states only at boundary 0 (the seed
// checkpoint).
func (ck *Checkpoint) wellFormed() error {
	if ck.Iterations < 0 || len(ck.Trace) != ck.Iterations+1 {
		return fmt.Errorf("floc: checkpoint trace has %d entries for %d iterations, want %d", len(ck.Trace), ck.Iterations, ck.Iterations+1)
	}
	if len(ck.Clusters) == 0 && ck.Iterations != 0 {
		return fmt.Errorf("floc: checkpoint at iteration %d holds no cluster states; only a seed checkpoint (iteration 0) may", ck.Iterations)
	}
	return nil
}

// configSum fingerprints a normalized Config with FNV-64a over the
// exact bits of every field that shapes the run's trajectory.
// MaxIterations is deliberately excluded: it caps the run without
// altering any iteration, so resuming a capped run under a larger
// budget is legal and bit-identical as far as the cap allowed.
// Workers is excluded for the same reason: the decide phase's worker
// count never changes a bit of the trajectory (see Config.Workers),
// so a checkpoint written at one worker count resumes at any other.
//
// Three slots hash a constant 0: they held the retired residue mean
// (0 the arithmetic mean, 1 the squared one) and the retired switches
// for re-deciding each action at apply time and for approximate
// gains. Keeping the bytes keeps every checkpoint written under the
// arithmetic mean with both switches off (the only settings the
// engine still runs) resumable, and one written under any other
// setting fails the config check instead of resuming under a scoring
// rule it was not cut with.
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
	u(0)     // retired residue mean; see above
	o(false) // retired re-decide-at-apply switch; see above
	o(cfg.Polish)
	f(cfg.PolishMaxResidue)
	o(false) // retired approximate-gain switch; see above
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

// FNV-64a's parameters, and its prime raised to the 8th power modulo
// 2⁶⁴: hashing eight zero bytes multiplies the state by fnvPrime8.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvPrime8 = 0x1efac7090aef4a21
)

// fnvWord feeds v's eight little-endian bytes to an FNV-64a state.
func fnvWord(h, v uint64) uint64 {
	for k := 0; k < 8; k++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h
}

// matrixSum fingerprints a matrix with FNV-64a over this byte stream,
// as little-endian uint64 words: rows, cols, then per entry in
// row-major order the word 1 if it is missing, or the word 0 and the
// entry's bits if it is specified. A missing entry hashes as a marker,
// not as its NaN payload, so any NaN encoding reads as the same matrix.
//
// The stream is part of the DCKP format, but most of it is constant:
// a marker word is one byte 0 or 1 followed by seven zero bytes, and
// xor with a zero byte does nothing, so the word's eight steps are one
// xor with its first byte and one multiply by fnvPrime8. A missing
// entry costs one xor and one multiply and a specified one nine
// multiplies, with the same value as the byte-by-byte hash.
func matrixSum(m *matrix.Matrix) uint64 {
	h := fnvWord(fnvWord(fnvOffset, uint64(m.Rows())), uint64(m.Cols()))
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.RowView(i) {
			if math.IsNaN(v) {
				h = (h ^ 1) * fnvPrime8
				continue
			}
			h = fnvWord(h*fnvPrime8, math.Float64bits(v))
		}
	}
	return h
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
	return ck.wellFormed()
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
