package bicluster

import (
	"math"
	"testing"

	"deltacluster/internal/cluster"
	"deltacluster/internal/eval"
	"deltacluster/internal/matrix"
	"deltacluster/internal/paperdata"
	"deltacluster/internal/synth"
)

func TestValidation(t *testing.T) {
	m, _ := matrix.NewFromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := Run(m, Config{K: 0, Delta: 1}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run(m, Config{K: 1, Delta: -1}); err == nil {
		t.Error("negative delta accepted")
	}
	empty := matrix.New(0, 0)
	if _, err := Run(empty, Config{K: 1, Delta: 1}); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestPerfectClusterFoundWhole(t *testing.T) {
	// A perfectly shifted matrix has MSR 0 everywhere; the first
	// bicluster is the whole matrix.
	m := paperdata.Figure1Vectors()
	res, err := Run(m, Config{K: 1, Delta: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Biclusters) != 1 {
		t.Fatalf("found %d biclusters", len(res.Biclusters))
	}
	b := res.Biclusters[0]
	if b.NumRows() != 3 || b.NumCols() != 5 {
		t.Errorf("bicluster is %dx%d, want the whole 3x5 matrix", b.NumRows(), b.NumCols())
	}
	if h := b.MeanSquaredResidue(); h > 1e-9 {
		t.Errorf("MSR = %v, want ~0", h)
	}
}

func TestDeltaRespected(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Rows: 120, Cols: 20, NumClusters: 3,
		VolumeMean: 100, VolumeVariance: 0, RowColRatio: 5,
		TargetResidue: 4,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ds.Matrix, Config{K: 3, Delta: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Biclusters) == 0 {
		t.Fatal("no biclusters found")
	}
	for i, b := range res.Biclusters {
		// Node addition can push H slightly above δ (it adds anything
		// not above the *current* mean); allow modest slack, as the
		// original algorithm does.
		if h := b.MeanSquaredResidue(); h > 80*1.5 {
			t.Errorf("bicluster %d MSR = %v, want ≤ δ·1.5 = 120", i, h)
		}
	}
}

func TestRecoversEmbeddedModule(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Rows: 150, Cols: 20, NumClusters: 2,
		VolumeMean: 150, VolumeVariance: 0, RowColRatio: 5,
		TargetResidue: 3,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ds.Matrix, Config{K: 2, Delta: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := eval.RecallPrecision(ds.Matrix, ds.Embedded, eval.Specs(res.Biclusters))
	if rec < 0.3 {
		t.Errorf("recall = %.3f, want ≥ 0.3", rec)
	}
}

func TestMaskingDoesNotTouchInput(t *testing.T) {
	ds, _ := synth.Generate(synth.Config{
		Rows: 60, Cols: 12, NumClusters: 1,
		VolumeMean: 60, VolumeVariance: 0, RowColRatio: 4,
		TargetResidue: 2,
	}, 5)
	before := ds.Matrix.Clone()
	if _, err := Run(ds.Matrix, Config{K: 2, Delta: 50, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if !ds.Matrix.Equal(before) {
		t.Error("Run modified the input matrix")
	}
}

func TestSequentialBiclustersDiffer(t *testing.T) {
	ds, _ := synth.Generate(synth.Config{
		Rows: 120, Cols: 16, NumClusters: 2,
		VolumeMean: 120, VolumeVariance: 0, RowColRatio: 5,
		TargetResidue: 3,
	}, 11)
	res, err := Run(ds.Matrix, Config{K: 2, Delta: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Biclusters) == 2 {
		a, b := res.Biclusters[0], res.Biclusters[1]
		if a.Overlap(b) == a.NumRows()*a.NumCols() {
			t.Error("second bicluster identical to the first despite masking")
		}
	}
}

func TestDeterministic(t *testing.T) {
	ds, _ := synth.Generate(synth.Config{
		Rows: 80, Cols: 12, NumClusters: 1,
		VolumeMean: 80, VolumeVariance: 0, RowColRatio: 4,
		TargetResidue: 2,
	}, 13)
	cfg := Config{K: 2, Delta: 40, Seed: 9}
	a, _ := Run(ds.Matrix, cfg)
	b, _ := Run(ds.Matrix, cfg)
	if len(a.Biclusters) != len(b.Biclusters) {
		t.Fatal("nondeterministic bicluster count")
	}
	for i := range a.Biclusters {
		if a.Biclusters[i].Volume() != b.Biclusters[i].Volume() {
			t.Fatal("nondeterministic bicluster volume")
		}
	}
}

func TestMissingValuesTolerated(t *testing.T) {
	ds, _ := synth.Generate(synth.Config{
		Rows: 80, Cols: 12, NumClusters: 1,
		VolumeMean: 80, VolumeVariance: 0, RowColRatio: 4,
		TargetResidue: 2, MissingFraction: 0.1,
	}, 17)
	res, err := Run(ds.Matrix, Config{K: 1, Delta: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Biclusters) == 0 {
		t.Fatal("no bicluster found on matrix with missing values")
	}
}

func TestContributionOracle(t *testing.T) {
	m := paperdata.Figure4Matrix()
	cl := cluster.FromSpec(m, []int{0, 1, 2, 3}, []int{0, 1, 2, 3, 4})
	// The mean of row contributions weighted by entry counts equals
	// the overall MSR for a fully specified matrix.
	total := 0.0
	for _, i := range cl.Rows() {
		total += rowContribution(cl, i)
	}
	if got, want := total/4, msr(cl); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("mean row contribution %v != MSR %v", got, want)
	}
}

func TestInvertedRowsOption(t *testing.T) {
	// Base pattern plus a mirrored row: with AddInvertedRows the
	// mirrored row may join during addition; without it, it must not.
	rows := [][]float64{
		{1, 2, 3, 4},
		{2, 3, 4, 5},
		{3, 4, 5, 6},
		{-1, -2, -3, -4}, // mirror of row 0
	}
	m, _ := matrix.NewFromRows(rows)
	noInv, err := Run(m, Config{K: 1, Delta: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(noInv.Biclusters) == 0 {
		t.Fatal("no bicluster")
	}
	if noInv.Biclusters[0].HasRow(3) {
		t.Error("mirror row admitted without AddInvertedRows")
	}
}
