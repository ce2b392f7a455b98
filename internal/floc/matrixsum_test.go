package floc

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// referenceMatrixSum is matrixSum written out byte by byte: the DCKP
// matrix fingerprint as the format defines it, one hash.Hash write of
// eight bytes per word.
func referenceMatrixSum(m *matrix.Matrix) uint64 {
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

// checkMatrixSum fails t unless matrixSum agrees with the reference on m.
func checkMatrixSum(t testing.TB, what string, m *matrix.Matrix) {
	t.Helper()
	if got, want := matrixSum(m), referenceMatrixSum(m); got != want {
		t.Fatalf("%s (%dx%d): matrixSum %016x, reference %016x", what, m.Rows(), m.Cols(), got, want)
	}
}

func sumStandIns(tb testing.TB) (ratings, yeast *matrix.Matrix) {
	tb.Helper()
	r, err := synth.MovieLens(synth.DefaultMovieLensConfig(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	y, err := synth.Yeast(synth.DefaultYeastConfig(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return r.Matrix, y.Matrix
}

// TestMatrixSumMatchesReference pins the folded matrixSum to the
// byte-serial FNV-64a stream on the stand-ins, on degenerate shapes, on
// special float values and NaN payloads, and after every streaming
// mutator.
func TestMatrixSumMatchesReference(t *testing.T) {
	ratings, yeast := sumStandIns(t)
	checkMatrixSum(t, "ratings", ratings)
	checkMatrixSum(t, "yeast", yeast)

	for _, shape := range [][2]int{{0, 0}, {0, 5}, {1, 1}, {1, 37}, {37, 1}} {
		m := matrix.New(shape[0], shape[1])
		checkMatrixSum(t, "all missing", m)
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				m.Set(i, j, float64(i*m.Cols()+j)-3.5)
			}
		}
		checkMatrixSum(t, "complete", m)
	}

	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1,
		math.NaN(),
		math.Float64frombits(0x7FF8_0000_0000_BEEF), // quiet NaN, payload
		math.Float64frombits(0x7FF0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xFFF8_0000_0000_0000), // negative quiet NaN
		math.Float64frombits(0xFFFF_FFFF_FFFF_FFFF),
	}
	m, err := matrix.NewFromRows([][]float64{specials})
	if err != nil {
		t.Fatal(err)
	}
	checkMatrixSum(t, "specials", m)
	canonical := matrix.New(1, len(specials))
	for j, v := range specials {
		if !math.IsNaN(v) {
			canonical.Set(0, j, v)
		}
	}
	if matrixSum(m) != matrixSum(canonical) {
		t.Fatal("NaN payloads change matrixSum; every NaN must hash as missing")
	}
	negZero := matrixSum(canonical)
	canonical.Set(0, 1, 0)
	if matrixSum(canonical) == negZero {
		t.Fatal("matrixSum does not tell -0 from +0")
	}

	m = plantedMissingMatrix(t, 3, 40, 9, 2, 60, 0.2)
	m.EnsureDerived()
	checkMatrixSum(t, "planted", m)
	before := matrixSum(m)
	steps := []struct {
		name string
		run  func() error
	}{
		{"AppendRows", func() error {
			return m.AppendRows([][]float64{
				{1, math.NaN(), 3, 4, 5, 6, 7, 8, 9},
				{math.Float64frombits(0x7FF8_0000_0000_BEEF), 2, 3, 4, 5, 6, 7, 8, math.Inf(1)},
			})
		}},
		{"UpdateCells", func() error {
			return m.UpdateCells([]matrix.Cell{
				{Row: 0, Col: 0, Value: math.Copysign(0, -1)},
				{Row: 3, Col: 4, Value: math.Float64frombits(0x7FF0_0000_0000_0001)},
				{Row: 40, Col: 1, Value: 2.5},
			})
		}},
		{"MarkMissing", func() error {
			return m.MarkMissing([]matrix.CellRef{{Row: 1, Col: 1}, {Row: 41, Col: 8}})
		}},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkMatrixSum(t, "after "+s.name, m)
		if after := matrixSum(m); after == before {
			t.Fatalf("%s left matrixSum at %016x", s.name, after)
		} else {
			before = after
		}
	}
}

// FuzzMatrixSum checks matrixSum against the reference on matrices
// read from DCMX bytes. Input that decodes is hashed as it is; input
// that does not is read as raw entries (eight bytes each, any NaN
// payload), which then round-trip through EncodeBinary and
// DecodeBinary unless one is infinite: the decoded matrix must hash
// the same, since DCMX keeps every specified entry's bits and drops
// NaN payloads.
func FuzzMatrixSum(f *testing.F) {
	nan := math.NaN()
	small, err := matrix.NewFromRows([][]float64{
		{1, nan, 3.5, nan},
		{nan, nan, math.Copysign(0, -1), 4},
		{5, -2.25, nan, nan},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(matrix.EncodeBinary(small))
	f.Add(matrix.EncodeBinary(matrix.New(0, 0)))
	f.Add(matrix.EncodeBinary(matrix.New(3, 1)))
	f.Add([]byte{})
	f.Add([]byte{2, 0xEF, 0xBE, 0, 0, 0, 0, 0xF8, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0xF0, 0xFF, 1, 0, 0, 0, 0, 0, 0xF0, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := matrix.DecodeBinary(data, 1<<12); err == nil {
			checkMatrixSum(t, "decoded", m)
			return
		}
		if len(data) == 0 {
			return
		}
		cols := 1 + int(data[0])%8
		cells := (len(data) - 1) / 8
		rows := min(cells, 1<<12) / cols
		m := matrix.New(rows, cols)
		finite := true
		for k := 0; k < rows*cols; k++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*k:]))
			finite = finite && !math.IsInf(v, 0)
			m.Set(k/cols, k%cols, v)
		}
		checkMatrixSum(t, "raw", m)
		if !finite {
			return // DCMX refuses infinite entries
		}
		d, err := matrix.DecodeBinary(matrix.EncodeBinary(m), 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		checkMatrixSum(t, "round-tripped", d)
		if matrixSum(d) != matrixSum(m) {
			t.Fatalf("DCMX round trip moved matrixSum %016x -> %016x", matrixSum(m), matrixSum(d))
		}
	})
}

var sumSink uint64

// BenchmarkMatrixSum times the DCKP matrix fingerprint on the two
// stand-ins: the 943×1682 ratings matrix (about 94% missing), which
// every served ratings job that cuts a checkpoint hashes once, and the
// complete 2884×17 yeast matrix.
func BenchmarkMatrixSum(b *testing.B) {
	ratings, yeast := sumStandIns(b)
	for _, bc := range []struct {
		name string
		m    *matrix.Matrix
	}{{"ratings", ratings}, {"yeast", yeast}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sumSink = matrixSum(bc.m)
			}
		})
	}
}
