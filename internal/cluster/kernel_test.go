package cluster

import (
	"encoding/binary"
	"math"
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// The batched row-insertion kernels, differentially: the sixteen-lane
// AVX2 kernel must return the portable four-lane kernel's bits, and
// RowInsertionResidues the really inserted clusters' residue bits, on
// adversarial values — signed zeros, subnormals, offsets that overflow
// to ±Inf, all-missing columns whose 0/0 bases no term may read — at
// every batch width and every member-column count up to the pack
// stride, 0-row packs and zero-volume lanes included.

// kernelPalette holds the adversarial values the kernel tests draw
// from besides ordinary ones; the huge ones make d − cb overflow.
var kernelPalette = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1e-309, 0.5, -2, 3.25,
}

var kernelHuge = []float64{1e308, -1e308, 1.7e308, -1.7e308, math.MaxFloat64}

// kernelMatrix draws a rows×cols matrix for the kernel tests: entries
// from the palette (huge ones too when huge is set) or ordinary
// magnitudes, 20% missing, every fifth column entirely missing, and the
// last two rows entirely missing (their insertions add no entry).
func kernelMatrix(rng *stats.RNG, rows, cols int, huge bool) *matrix.Matrix {
	m := matrix.New(rows, cols)
	for i := 0; i < rows-2; i++ {
		for j := 0; j < cols; j++ {
			if j%5 == 4 || rng.Bool(0.2) {
				continue
			}
			var v float64
			switch k := rng.Intn(10); {
			case huge && k < 3:
				v = kernelHuge[rng.Intn(len(kernelHuge))]
			case k < 6:
				v = kernelPalette[rng.Intn(len(kernelPalette))]
			default:
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// kernelCluster builds a packed cluster of m whose pack stride fits
// width columns and which keeps nc ≤ width of them: it starts from
// width columns and removes the rest, so the pack's slots past nc hold
// stale values no kernel may read. Its rows are nRows random rows, the
// all-missing last two among them at random.
func kernelCluster(rng *stats.RNG, m *matrix.Matrix, nRows, width, nc int) *Cluster {
	perm := rng.Perm(m.Cols())
	cols := perm[:width]
	rows := rng.Perm(m.Rows())[:nRows]
	c := FromSpec(m, rows, cols)
	c.EnablePack()
	for _, j := range cols[nc:] {
		c.RemoveCol(j)
	}
	return c
}

// checkKernels scores row insertions of rows into c, one lane each, and
// fails unless both kernels return the same lane sums and
// RowInsertionResidues returns each really inserted cluster's residue.
// It returns how many lane sums were infinite or NaN.
func checkKernels(t *testing.T, c *Cluster, rows []int, mean ResidueMean) (nonFinite int) {
	t.Helper()
	n := len(rows)
	ps := make([]Probe, n)
	var lanePs [RowInsertionLanes]*Probe
	for q, i := range rows {
		ps[q].Load(c, true, i)
		lanePs[q] = &ps[q]
	}
	var l lanes
	l.load(&lanePs, n)
	portable := l.scan(&ps[0], mean, false)
	for _, x := range portable[:n] {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			nonFinite++
		}
	}
	if useAVX2 {
		avx := l.scan(&ps[0], mean, true)
		for q := 0; q < n; q++ {
			if math.Float64bits(avx[q]) != math.Float64bits(portable[q]) {
				t.Fatalf("rows %v cols %v mean %v lanes %v: lane %d AVX2 sum %x (%v), portable %x (%v)",
					c.memberRows, c.memberCols, mean, rows, q,
					math.Float64bits(avx[q]), avx[q], math.Float64bits(portable[q]), portable[q])
			}
		}
	}
	out := make([]float64, n)
	RowInsertionResidues(ps, mean, out)
	for q, i := range rows {
		if want := toggled(c, true, i).ResidueWith(mean); math.Float64bits(out[q]) != math.Float64bits(want) {
			t.Fatalf("rows %v cols %v mean %v lanes %v: lane %d residue %x (%v), inserted %x (%v)",
				c.memberRows, c.memberCols, mean, rows, q,
				math.Float64bits(out[q]), out[q], math.Float64bits(want), want)
		}
	}
	return nonFinite
}

// nonMembers returns the rows of c's matrix that c does not hold.
func nonMembers(c *Cluster) []int {
	var out []int
	for i := 0; i < c.m.Rows(); i++ {
		if !c.HasRow(i) {
			out = append(out, i)
		}
	}
	return out
}

// TestRowInsertionKernelsAgree runs checkKernels at every batch width
// 1…16 and every member-column count 0…width for pack strides 4, 8, 16
// and 32, under both means, with duplicate lanes, 0-row packs, clusters
// on all-missing columns (zero-volume lanes) and, on every other
// matrix, entries near ±1e308. It logs whether the AVX2 kernel ran;
// without it only the portable kernel is checked against real
// insertions.
func TestRowInsertionKernelsAgree(t *testing.T) {
	rng := stats.NewRNG(77)
	nonFinite := 0
	for trial := 0; trial < 8; trial++ {
		m := kernelMatrix(rng, 24, 22, trial%2 == 0)
		for _, width := range []int{4, 8, 16, 20} {
			for nc := 0; nc <= width; nc++ {
				nRows := []int{0, 1, 5, 12}[rng.Intn(4)]
				c := kernelCluster(rng, m, nRows, width, nc)
				cands := nonMembers(c)
				for n := 1; n <= RowInsertionLanes; n++ {
					rows := make([]int, n)
					for q := range rows {
						rows[q] = cands[rng.Intn(len(cands))]
					}
					if n > 1 && rng.Bool(0.3) {
						rows[n-1] = rows[0] // a duplicate lane
					}
					for _, mean := range []ResidueMean{ArithmeticMean, SquaredMean} {
						nonFinite += checkKernels(t, c, rows, mean)
					}
				}
			}
		}
	}
	// Zero-volume lanes: a cluster on all-missing columns, and
	// insertions of all-missing rows into a cluster without entries.
	m := kernelMatrix(rng, 24, 22, true)
	nanCols := FromSpec(m, []int{0, 1, 2}, []int{4, 9, 14})
	nanCols.EnablePack()
	nanRows := FromSpec(m, []int{22}, []int{0, 1, 2, 3})
	nanRows.EnablePack()
	for _, mean := range []ResidueMean{ArithmeticMean, SquaredMean} {
		checkKernels(t, nanCols, []int{3, 5, 23, 7, 8}, mean)
		checkKernels(t, nanRows, []int{23, 0, 23, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 23}, mean)
	}
	// The overflow legs must keep overflowing, or they check nothing.
	if nonFinite < 1000 {
		t.Errorf("%d infinite or NaN lane sums; want at least 1000", nonFinite)
	}
	t.Logf("AVX2 kernel checked: %v; %d infinite or NaN lane sums", useAVX2, nonFinite)
}

// FuzzRowInsertionKernel checks the kernels' contract on fuzzed
// clusters: seed picks the shape, the members and the lanes; raw, read
// eight bytes at a time as float64 bits, supplies the entries (NaNs are
// missing, infinities clamp to ±MaxFloat64, as matrix.Read rejects
// them).
func FuzzRowInsertionKernel(f *testing.F) {
	f.Add(int64(1), false, []byte{})
	f.Add(int64(2), true, []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	huge := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.7e308))
	huge = binary.LittleEndian.AppendUint64(huge, math.Float64bits(-1e308))
	f.Add(int64(3), false, huge)
	f.Add(int64(4), true, binary.LittleEndian.AppendUint64(huge, math.Float64bits(5e-324)))
	f.Fuzz(func(t *testing.T, seed int64, squared bool, raw []byte) {
		rng := stats.NewRNG(seed)
		rows, cols := 2+rng.Intn(30), 1+rng.Intn(24)
		var m *matrix.Matrix
		if len(raw) < 8 {
			m = kernelMatrix(rng, rows, cols, true)
		} else {
			m = matrix.New(rows, cols)
			words := len(raw) / 8
			for k := 0; k < rows*cols; k++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(k%words):]))
				if math.IsInf(v, 0) {
					v = math.Copysign(math.MaxFloat64, v)
				}
				m.Set(k/cols, k%cols, v)
			}
		}
		width := rng.Intn(cols + 1)
		c := kernelCluster(rng, m, rng.Intn(rows), width, rng.Intn(width+1))
		cands := nonMembers(c)
		rowsIn := make([]int, 1+rng.Intn(RowInsertionLanes))
		for q := range rowsIn {
			rowsIn[q] = cands[rng.Intn(len(cands))]
		}
		mean := ArithmeticMean
		if squared {
			mean = SquaredMean
		}
		checkKernels(t, c, rowsIn, mean)
	})
}
