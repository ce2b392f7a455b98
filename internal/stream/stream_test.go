package stream

import (
	"math"
	"testing"

	"deltacluster/internal/matrix"
)

func testMatrix(t *testing.T, rows, cols int) *matrix.Matrix {
	t.Helper()
	m := matrix.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, float64(i*cols+j))
		}
	}
	return m
}

func TestLogAppendAndVersioning(t *testing.T) {
	l := NewLog(3, 4)
	if l.Version() != 0 || l.BaseRows() != 3 || l.Rows() != 3 || l.Cols() != 4 {
		t.Fatalf("fresh log state: v=%d base=%d rows=%d cols=%d", l.Version(), l.BaseRows(), l.Rows(), l.Cols())
	}
	v, err := l.Append(Mutation{AppendRows: [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}})
	if err != nil || v != 1 {
		t.Fatalf("append #1: v=%d err=%v", v, err)
	}
	if l.Rows() != 5 {
		t.Fatalf("rows after append = %d, want 5", l.Rows())
	}
	v, err = l.Append(Mutation{Updates: []matrix.Cell{{Row: 4, Col: 0, Value: 9}}})
	if err != nil || v != 2 {
		t.Fatalf("append #2: v=%d err=%v", v, err)
	}
	if l.BaseRows() != 3 {
		t.Fatalf("BaseRows moved to %d", l.BaseRows())
	}
	if got := len(l.Entries(0)); got != 2 {
		t.Fatalf("Entries(0) = %d entries, want 2", got)
	}
	if got := len(l.Entries(1)); got != 1 {
		t.Fatalf("Entries(1) = %d entries, want 1", got)
	}
	if l.Entries(2) != nil {
		t.Fatalf("Entries(head) should be nil")
	}
}

func TestLogValidation(t *testing.T) {
	cases := []struct {
		name string
		mu   Mutation
	}{
		{"empty", Mutation{}},
		{"ragged append", Mutation{AppendRows: [][]float64{{1, 2}}}},
		{"inf append", Mutation{AppendRows: [][]float64{{1, 2, math.Inf(1)}}}},
		{"update row out of range", Mutation{Updates: []matrix.Cell{{Row: 2, Col: 0, Value: 1}}}},
		{"update col out of range", Mutation{Updates: []matrix.Cell{{Row: 0, Col: 3, Value: 1}}}},
		{"update negative", Mutation{Updates: []matrix.Cell{{Row: -1, Col: 0, Value: 1}}}},
		{"inf update", Mutation{Updates: []matrix.Cell{{Row: 0, Col: 0, Value: math.Inf(-1)}}}},
		{"retract out of range", Mutation{Retract: []matrix.CellRef{{Row: 0, Col: 9}}}},
	}
	for _, tc := range cases {
		l := NewLog(2, 3)
		if _, err := l.Append(tc.mu); err == nil {
			t.Errorf("%s: Append accepted invalid mutation", tc.name)
		}
		if l.Version() != 0 || l.Rows() != 2 {
			t.Errorf("%s: rejected mutation changed log state", tc.name)
		}
	}
}

func TestLogUpdateMayTargetAppendedRow(t *testing.T) {
	l := NewLog(2, 2)
	mu := Mutation{
		AppendRows: [][]float64{{1, 2}},
		Updates:    []matrix.Cell{{Row: 2, Col: 1, Value: 7}},
		Retract:    []matrix.CellRef{{Row: 2, Col: 0}},
	}
	if _, err := l.Append(mu); err != nil {
		t.Fatalf("Append rejected same-batch row reference: %v", err)
	}
	m := testMatrix(t, 2, 2)
	if _, err := l.ApplyTo(m, 0); err != nil {
		t.Fatalf("ApplyTo: %v", err)
	}
	if got := m.Get(2, 1); got != 7 {
		t.Fatalf("updated appended cell = %v, want 7", got)
	}
	if !math.IsNaN(m.Get(2, 0)) {
		t.Fatalf("retracted appended cell = %v, want NaN", m.Get(2, 0))
	}
}

func TestApplyToReplaysDeterministically(t *testing.T) {
	l := NewLog(3, 3)
	if _, err := l.Append(Mutation{AppendRows: [][]float64{{10, 11, 12}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Mutation{
		Updates: []matrix.Cell{{Row: 0, Col: 0, Value: -1}, {Row: 3, Col: 2, Value: 99}},
		Retract: []matrix.CellRef{{Row: 1, Col: 1}},
	}); err != nil {
		t.Fatal(err)
	}

	a := testMatrix(t, 3, 3)
	b := testMatrix(t, 3, 3)
	if _, err := l.ApplyTo(a, 0); err != nil {
		t.Fatalf("ApplyTo a: %v", err)
	}
	if _, err := l.ApplyTo(b, 0); err != nil {
		t.Fatalf("ApplyTo b: %v", err)
	}
	if !a.Equal(b) {
		t.Fatalf("two replays of the same log diverged")
	}

	// Partial replay: matrix already at version 1 only needs entry 2.
	c := testMatrix(t, 3, 3)
	if err := c.AppendRows([][]float64{{10, 11, 12}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ApplyTo(c, 1); err != nil {
		t.Fatalf("ApplyTo from v1: %v", err)
	}
	if !a.Equal(c) {
		t.Fatalf("partial replay diverged from full replay")
	}
}

func TestApplyToShapeMismatch(t *testing.T) {
	l := NewLog(3, 3)
	if _, err := l.Append(Mutation{AppendRows: [][]float64{{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	m := testMatrix(t, 4, 3) // wrong shape for version 0
	if _, err := l.ApplyTo(m, 0); err == nil {
		t.Fatalf("ApplyTo accepted a matrix at the wrong version shape")
	}
	if _, err := l.ApplyTo(testMatrix(t, 3, 3), 5); err == nil {
		t.Fatalf("ApplyTo accepted an out-of-range from version")
	}
}

func TestDeltaSince(t *testing.T) {
	l := NewLog(2, 2)
	if _, err := l.Append(Mutation{AppendRows: [][]float64{{1, 2}, {3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Mutation{
		Updates: []matrix.Cell{{Row: 0, Col: 0, Value: 1}},
		Retract: []matrix.CellRef{{Row: 1, Col: 1}, {Row: 2, Col: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	if d := l.DeltaSince(0); d.NewRows != 2 || d.ChangedCells != 3 {
		t.Fatalf("DeltaSince(0) = %+v", d)
	}
	if d := l.DeltaSince(1); d.NewRows != 0 || d.ChangedCells != 3 {
		t.Fatalf("DeltaSince(1) = %+v", d)
	}
	if d := l.DeltaSince(2); d.NewRows != 0 || d.ChangedCells != 0 {
		t.Fatalf("DeltaSince(head) = %+v", d)
	}
}
