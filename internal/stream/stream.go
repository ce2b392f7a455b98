// Package stream is the deltastream ingestion subsystem: a versioned,
// append-only mutation log over a data matrix, built for live
// deployments whose matrices change continuously (the MovieLens
// scenario: new viewers arrive, ratings are revised or retracted).
//
// A Log records an ordered sequence of mutations — row appends, cell
// updates, cell retractions — each validated against the shape the
// matrix has at that point in the log and stamped with a version (the
// 1-based position in the log). Append validates and records; it
// touches no matrix. The log is the unit of replay: a matrix at
// version v plus the entries after v reproduces the matrix at the
// head, bit for bit. The service keeps an idle lineage as its matrix
// as submitted plus this log and replays it when the next job starts,
// and a coordinator reconstructs a patched matrix on a different
// backend the same way, from the original submission plus the
// recorded patches.
//
// Replay (ApplyTo) goes through the internal/matrix streaming mutators
// (AppendRows, UpdateCells, MarkMissing), which keep any derived read
// caches — column-major mirror, missing-value bitsets — coherent
// surgically instead of rebuilding them, so replaying a small delta
// onto a large matrix costs O(delta), not O(matrix).
//
// The warm-start contract this package feeds: a FLOC checkpoint cut
// before the mutations, plus the row count the checkpoint was cut at
// (BaseRows for a fresh log), is everything internal/floc needs to
// re-seed phase 1 from the converged parent clustering and place the
// appended rows by best residue.
package stream

import (
	"fmt"
	"math"

	"deltacluster/internal/matrix"
)

// Mutation is one batch of matrix changes, applied atomically (all
// validated against the pre-mutation shape before any entry is
// written). A batch may carry any combination of the three kinds;
// application order within a batch is AppendRows, then Updates, then
// Retract — so a batch may update entries of rows it appends.
type Mutation struct {
	// AppendRows adds new object rows; each must have exactly Cols
	// entries, NaN marking missing.
	AppendRows [][]float64

	// Updates revises individual entries (NaN marks missing, same as
	// a retraction).
	Updates []matrix.Cell

	// Retract marks individual entries missing.
	Retract []matrix.CellRef
}

// empty reports whether the mutation changes nothing.
func (mu *Mutation) empty() bool {
	return len(mu.AppendRows) == 0 && len(mu.Updates) == 0 && len(mu.Retract) == 0
}

// Entry is one committed log record: a mutation and the version it
// produced.
type Entry struct {
	// Version is the 1-based log position; applying entries 1..v to
	// the base matrix yields the matrix at version v.
	Version int
	Mutation
}

// Log is the append-only mutation log of one matrix lineage. The zero
// value is unusable; construct with NewLog. A Log is not safe for
// concurrent use; callers serialize access (the service holds its
// store lock across Append).
type Log struct {
	baseRows int
	cols     int
	rows     int // row count after every committed entry
	entries  []Entry
}

// NewLog starts an empty log for a matrix currently shaped
// rows×cols.
func NewLog(rows, cols int) *Log {
	return &Log{baseRows: rows, cols: cols, rows: rows}
}

// BaseRows returns the row count the log started from — the shape the
// pre-mutation matrix (and any checkpoint cut on it) had.
func (l *Log) BaseRows() int { return l.baseRows }

// Rows returns the row count after every committed mutation.
func (l *Log) Rows() int { return l.rows }

// Cols returns the (immutable) column count.
func (l *Log) Cols() int { return l.cols }

// Version returns the head version: the number of committed entries.
func (l *Log) Version() int { return len(l.entries) }

// Entries returns the committed entries with Version > after, oldest
// first. The returned slice aliases the log's storage; callers must
// not mutate it.
func (l *Log) Entries(after int) []Entry {
	if after < 0 {
		after = 0
	}
	if after >= len(l.entries) {
		return nil
	}
	return l.entries[after:]
}

// validate checks a mutation against the log's current shape. Row
// references may point into rows the same mutation appends (appends
// apply first).
func (l *Log) validate(mu *Mutation) error {
	if mu.empty() {
		return fmt.Errorf("stream: empty mutation (no appends, updates or retractions)")
	}
	rows := l.rows + len(mu.AppendRows)
	for i, r := range mu.AppendRows {
		if len(r) != l.cols {
			return fmt.Errorf("stream: appended row %d has %d entries, want %d", i, len(r), l.cols)
		}
		for j, v := range r {
			if math.IsInf(v, 0) {
				return fmt.Errorf("stream: appended row %d entry %d is infinite", i, j)
			}
		}
	}
	for n, c := range mu.Updates {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= l.cols {
			return fmt.Errorf("stream: update %d references (%d, %d) out of %dx%d", n, c.Row, c.Col, rows, l.cols)
		}
		if math.IsInf(c.Value, 0) {
			return fmt.Errorf("stream: update %d value is infinite", n)
		}
	}
	for n, c := range mu.Retract {
		if c.Row < 0 || c.Row >= rows || c.Col < 0 || c.Col >= l.cols {
			return fmt.Errorf("stream: retraction %d references (%d, %d) out of %dx%d", n, c.Row, c.Col, rows, l.cols)
		}
	}
	return nil
}

// Append validates mu against the log's current shape and commits it,
// returning the new head version. The mutation is recorded verbatim
// (the log aliases the caller's slices; callers must not mutate them
// afterwards). Validation is complete: replaying a committed entry
// onto a matrix of the log's shape cannot fail.
func (l *Log) Append(mu Mutation) (int, error) {
	if err := l.validate(&mu); err != nil {
		return 0, err
	}
	l.rows += len(mu.AppendRows)
	l.entries = append(l.entries, Entry{Version: len(l.entries) + 1, Mutation: mu})
	return len(l.entries), nil
}

// ApplyTo replays every committed entry with Version > from onto m,
// which must have the shape the log had at version from. It returns
// the head version. Replay is deterministic: the same log applied to
// the same base matrix produces bit-identical entries, which is what
// lets a warm-started recluster on a reconstructed matrix match one
// on the original.
func (l *Log) ApplyTo(m *matrix.Matrix, from int) (int, error) {
	if from < 0 || from > len(l.entries) {
		return 0, fmt.Errorf("stream: replay from version %d of %d", from, len(l.entries))
	}
	wantRows := l.baseRows
	for _, e := range l.entries[:from] {
		wantRows += len(e.AppendRows)
	}
	if m.Rows() != wantRows || m.Cols() != l.cols {
		return 0, fmt.Errorf("stream: matrix is %dx%d, log at version %d wants %dx%d",
			m.Rows(), m.Cols(), from, wantRows, l.cols)
	}
	for _, e := range l.entries[from:] {
		if err := applyMutation(m, &e.Mutation); err != nil {
			return 0, fmt.Errorf("stream: replaying version %d: %w", e.Version, err)
		}
	}
	return len(l.entries), nil
}

// applyMutation applies one batch to m through the surgical matrix
// mutators.
func applyMutation(m *matrix.Matrix, mu *Mutation) error {
	if len(mu.AppendRows) > 0 {
		if err := m.AppendRows(mu.AppendRows); err != nil {
			return err
		}
	}
	if len(mu.Updates) > 0 {
		if err := m.UpdateCells(mu.Updates); err != nil {
			return err
		}
	}
	if len(mu.Retract) > 0 {
		if err := m.MarkMissing(mu.Retract); err != nil {
			return err
		}
	}
	return nil
}

// Delta summarizes the mutations committed after version from — the
// quantities a warm-start policy wants: how many rows arrived and how
// many existing cells changed.
type Delta struct {
	// NewRows counts rows appended after version from.
	NewRows int
	// ChangedCells counts updates plus retractions after version from
	// (including those that target rows appended in the same window).
	ChangedCells int
}

// DeltaSince summarizes the committed entries with Version > from.
func (l *Log) DeltaSince(from int) Delta {
	var d Delta
	if from < 0 {
		from = 0
	}
	if from > len(l.entries) {
		return d
	}
	for _, e := range l.entries[from:] {
		d.NewRows += len(e.AppendRows)
		d.ChangedCells += len(e.Updates) + len(e.Retract)
	}
	return d
}
