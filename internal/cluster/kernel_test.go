package cluster

import (
	"encoding/binary"
	"math"
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/stats"
)

// The batched probe kernels, differentially: for every batched kind —
// row insertions, row removals and column insertions — the sixteen-lane
// AVX2 kernels must return the loader's scalar toggled bases and the
// portable four-lane kernels' lane sums bit for bit, and Residues the
// really toggled clusters' residue bits, on adversarial values — signed
// zeros, subnormals, offsets that overflow to ±Inf, all-missing rows
// and columns whose 0/0 bases no term may read — at every batch width
// and every member-column count up to the pack stride, stale pack
// slots, 0-row packs, duplicate and zero-volume lanes included.

// kernelPalette holds the adversarial values the kernel tests draw
// from besides ordinary ones; the huge ones make the offsets overflow.
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

// checkKernels loads a batch toggling rows (isRow) or columns idxs of
// c, one lane each, and fails unless both kernels return the same lane
// sums and Residues returns each really toggled cluster's residue. It
// returns how many lane sums were infinite or NaN.
func checkKernels(t *testing.T, c *Cluster, isRow bool, idxs []int) (nonFinite int) {
	t.Helper()
	var b Batch
	b.Load(c, isRow, idxs...)
	if useAVX2 {
		// The toggled bases of the AVX2 kernel and of the scalar loop.
		b.loadBases(true)
		avx := append([]float64(nil), b.bases...)
		b.loadBases(false)
		for x := range avx {
			if x%Lanes < len(idxs) && math.Float64bits(avx[x]) != math.Float64bits(b.bases[x]) {
				t.Fatalf("rows %v cols %v isRow %v lanes %v: member %d lane %d AVX2 base %x (%v), scalar %x (%v)",
					c.memberRows, c.memberCols, isRow, idxs, x/Lanes, x%Lanes,
					math.Float64bits(avx[x]), avx[x], math.Float64bits(b.bases[x]), b.bases[x])
			}
		}
	}
	portable := b.sums(false)
	for _, x := range portable[:len(idxs)] {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			nonFinite++
		}
	}
	if useAVX2 {
		avx := b.sums(true)
		for q := range idxs {
			if math.Float64bits(avx[q]) != math.Float64bits(portable[q]) {
				t.Fatalf("rows %v cols %v isRow %v lanes %v: lane %d AVX2 sum %x (%v), portable %x (%v)",
					c.memberRows, c.memberCols, isRow, idxs, q,
					math.Float64bits(avx[q]), avx[q], math.Float64bits(portable[q]), portable[q])
			}
		}
	}
	out := make([]float64, len(idxs))
	b.Residues(out)
	for q, x := range idxs {
		if want := toggled(c, isRow, x).Residue(); math.Float64bits(out[q]) != math.Float64bits(want) {
			t.Fatalf("rows %v cols %v isRow %v lanes %v: lane %d residue %x (%v), toggled %x (%v)",
				c.memberRows, c.memberCols, isRow, idxs, q,
				math.Float64bits(out[q]), out[q], math.Float64bits(want), want)
		}
	}
	return nonFinite
}

// candidates returns the rows (isRow) or columns of c's matrix that c
// holds (members) or does not hold.
func candidates(c *Cluster, isRow, members bool) []int {
	var out []int
	n, has := c.m.Cols(), c.HasCol
	if isRow {
		n, has = c.m.Rows(), c.HasRow
	}
	for x := 0; x < n; x++ {
		if has(x) == members {
			out = append(out, x)
		}
	}
	return out
}

// checkKernelWidths runs checkKernels on c at every batch width 1…16,
// drawing the lanes from cands, a duplicate lane in about a third of
// the batches.
func checkKernelWidths(t *testing.T, rng *stats.RNG, c *Cluster, isRow bool, cands []int) (nonFinite int) {
	t.Helper()
	if len(cands) == 0 {
		return 0
	}
	for n := 1; n <= Lanes; n++ {
		idxs := make([]int, n)
		for q := range idxs {
			idxs[q] = cands[rng.Intn(len(cands))]
		}
		if n > 1 && rng.Bool(0.3) {
			idxs[n-1] = idxs[0] // a duplicate lane
		}
		nonFinite += checkKernels(t, c, isRow, idxs)
	}
	return nonFinite
}

// checkKernelKind runs checkKernelWidths for one batched kind over
// every member-column count 0…width for pack strides 4, 8, 16 and 32,
// with 0-row packs among the clusters (for removals, at least one row)
// and, on every other matrix, entries near ±1e308. It fails unless the
// overflow legs produced at least minNonFinite infinite or NaN lane
// sums, and logs whether the AVX2 kernels ran; without them only the
// portable kernels are checked against real toggles.
func checkKernelKind(t *testing.T, seed int64, isRow, ins bool, minNonFinite int) {
	rng := stats.NewRNG(seed)
	nonFinite := 0
	for trial := 0; trial < 8; trial++ {
		m := kernelMatrix(rng, 24, 30, trial%2 == 0)
		for _, width := range []int{4, 8, 16, 20} {
			for nc := 0; nc <= width; nc++ {
				rowChoices := []int{0, 1, 5, 12}
				if !ins && isRow {
					rowChoices = []int{1, 2, 5, 12, 20}
				}
				nRows := rowChoices[rng.Intn(len(rowChoices))]
				c := kernelCluster(rng, m, nRows, width, nc)
				nonFinite += checkKernelWidths(t, rng, c, isRow, candidates(c, isRow, !ins))
			}
		}
	}
	// The overflow legs must keep overflowing, or they check nothing.
	if nonFinite < minNonFinite {
		t.Errorf("%d infinite or NaN lane sums; want at least %d", nonFinite, minNonFinite)
	}
	t.Logf("AVX2 kernel checked: %v; %d infinite or NaN lane sums", useAVX2, nonFinite)
}

// TestRowInsertionKernelsAgree checks the row kernel with its own-row
// epilogue, and zero-volume lanes: a cluster on all-missing columns,
// and insertions of all-missing rows into a cluster without entries.
func TestRowInsertionKernelsAgree(t *testing.T) {
	checkKernelKind(t, 77, true, true, 1000)
	rng := stats.NewRNG(78)
	m := kernelMatrix(rng, 24, 22, true)
	nanCols := FromSpec(m, []int{0, 1, 2}, []int{4, 9, 14})
	nanCols.EnablePack()
	nanRows := FromSpec(m, []int{22}, []int{0, 1, 2, 3})
	nanRows.EnablePack()
	checkKernels(t, nanCols, true, []int{3, 5, 23, 7, 8})
	checkKernels(t, nanRows, true, []int{23, 0, 23, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 23})
}

// TestRowRemovalKernelsAgree checks the row kernel run from given sums
// over the segments between removed positions, the last position and
// repeated positions included, and removals that leave no entry.
func TestRowRemovalKernelsAgree(t *testing.T) {
	checkKernelKind(t, 79, true, false, 1000)
	rng := stats.NewRNG(80)
	m := kernelMatrix(rng, 24, 22, true)
	nanCols := FromSpec(m, []int{0, 1, 2}, []int{4, 9, 14})
	nanCols.EnablePack()
	lastOnly := FromSpec(m, []int{5, 22}, []int{0, 1, 2, 3})
	lastOnly.EnablePack()
	checkKernels(t, nanCols, true, []int{0, 2, 1, 2, 0})
	checkKernels(t, lastOnly, true, []int{22, 5, 22, 5, 5})
}

// TestColInsertionKernelsAgree checks the column kernel, whose lanes
// carry toggled row bases and a masked inserted entry per row,
// insertions of all-missing columns and into all-missing rows
// included.
func TestColInsertionKernelsAgree(t *testing.T) {
	checkKernelKind(t, 81, false, true, 1000)
	rng := stats.NewRNG(82)
	m := kernelMatrix(rng, 24, 22, true)
	nanRows := FromSpec(m, []int{22, 23}, []int{0, 1})
	nanRows.EnablePack()
	mixed := FromSpec(m, []int{0, 22, 3}, []int{4, 9})
	mixed.EnablePack()
	checkKernels(t, nanRows, false, []int{2, 3, 4, 14, 2})
	checkKernels(t, mixed, false, []int{14, 19, 0, 1, 2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 15, 16})
}

// fuzzKernel checks one batched kind's contract on fuzzed clusters:
// seed picks the shape, the members and the lanes; raw, read eight
// bytes at a time as float64 bits, supplies the entries (NaNs are
// missing, infinities clamp to ±MaxFloat64, as matrix.Read rejects
// them).
func fuzzKernel(f *testing.F, isRow, ins bool) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	huge := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.7e308))
	huge = binary.LittleEndian.AppendUint64(huge, math.Float64bits(-1e308))
	f.Add(int64(3), huge)
	f.Add(int64(4), binary.LittleEndian.AppendUint64(huge, math.Float64bits(5e-324)))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
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
		cands := candidates(c, isRow, !ins)
		if len(cands) == 0 {
			return
		}
		idxs := make([]int, 1+rng.Intn(Lanes))
		for q := range idxs {
			idxs[q] = cands[rng.Intn(len(cands))]
		}
		checkKernels(t, c, isRow, idxs)
	})
}

// FuzzRowInsertionKernel fuzzes the row kernel with its own-row
// epilogue.
func FuzzRowInsertionKernel(f *testing.F) { fuzzKernel(f, true, true) }

// FuzzRowRemovalKernel fuzzes the segmented row-removal passes.
func FuzzRowRemovalKernel(f *testing.F) { fuzzKernel(f, true, false) }

// FuzzColInsertionKernel fuzzes the column kernel.
func FuzzColInsertionKernel(f *testing.F) { fuzzKernel(f, false, true) }
