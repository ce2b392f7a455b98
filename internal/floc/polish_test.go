package floc

import (
	"testing"

	"deltacluster/internal/matrix"
)

// polishEngine builds a consistent engine over m with exactly the
// given cluster memberships by resuming a hand-built boundary
// checkpoint — the same construction path a real resume takes, so the
// guarded caches are correct by the resume invariants.
func polishEngine(t *testing.T, m *matrix.Matrix, cfg Config, members []ClusterState) *engine {
	t.Helper()
	if err := cfg.validate(m.Rows(), m.Cols()); err != nil {
		t.Fatal(err)
	}
	e, err := resumeEngine(m, &cfg, &Checkpoint{
		Seed:      cfg.Seed,
		Trace:     []float64{0},
		Clusters:  members,
		ConfigSum: configSum(&cfg),
		MatrixSum: matrixSum(m),
	}, matrixSum(m))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// additiveMatrix returns a rows×cols matrix with entry i+j: perfectly
// shifting-coherent, residue 0 on any submatrix.
func additiveMatrix(t *testing.T, rows, cols int) *matrix.Matrix {
	t.Helper()
	data := make([][]float64, rows)
	for i := range data {
		data[i] = make([]float64, cols)
		for j := range data[i] {
			data[i][j] = float64(i + j)
		}
	}
	m, err := matrix.NewFromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPolishEmptyCluster(t *testing.T) {
	m := additiveMatrix(t, 6, 5)
	e := polishEngine(t, m, DefaultConfig(1, 1), []ClusterState{{}})
	e.polish()
	if cl := e.clusters[0]; cl.NumRows() != 0 || cl.NumCols() != 0 {
		t.Fatalf("polish grew an empty cluster to %dx%d", cl.NumRows(), cl.NumCols())
	}
}

func TestPolishSingleRowSingleColCluster(t *testing.T) {
	m := additiveMatrix(t, 6, 5)
	e := polishEngine(t, m, DefaultConfig(1, 1), []ClusterState{
		{Rows: []int{2}, Cols: []int{3}},
	})
	e.polish()
	cl := e.clusters[0]
	if cl.NumRows() != 1 || cl.NumCols() != 1 {
		t.Fatalf("cluster is %dx%d after polish, want the 1x1 left intact (below the size floor)", cl.NumRows(), cl.NumCols())
	}
	if !cl.HasRow(2) || !cl.HasCol(3) {
		t.Fatal("polish swapped the singleton members")
	}
}

func TestPolishClusterAlreadyUnderDelta(t *testing.T) {
	m := additiveMatrix(t, 6, 5)
	e := polishEngine(t, m, DefaultConfig(1, 1), []ClusterState{
		{Rows: []int{0, 1, 2, 3, 4, 5}, Cols: []int{0, 1, 2, 3, 4}},
	})
	e.polish()
	cl := e.clusters[0]
	if cl.NumRows() != 6 || cl.NumCols() != 5 {
		t.Fatalf("polish shrank a zero-residue cluster to %dx%d; removals from a cluster already under δ never gain", cl.NumRows(), cl.NumCols())
	}
}

func TestPolishRemovesOutlierRow(t *testing.T) {
	m := additiveMatrix(t, 7, 5)
	for j := 0; j < 5; j++ {
		v := 100.0
		if j%2 == 1 {
			v = -100.0
		}
		m.Set(6, j, v)
	}
	e := polishEngine(t, m, DefaultConfig(1, 1), []ClusterState{
		{Rows: []int{0, 1, 2, 3, 4, 5, 6}, Cols: []int{0, 1, 2, 3, 4}},
	})
	e.polish()
	cl := e.clusters[0]
	if cl.HasRow(6) {
		t.Fatal("polish kept the outlier row despite its massively positive removal gain")
	}
	for i := 0; i < 6; i++ {
		if !cl.HasRow(i) {
			t.Fatalf("polish removed coherent row %d", i)
		}
	}
	if cl.NumCols() != 5 {
		t.Fatalf("polish removed coherent columns, %d left of 5", cl.NumCols())
	}
}
