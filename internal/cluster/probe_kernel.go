package cluster

import "math"

// The batched probe kernels. Each scores sixteen lanes over a run of
// the frozen pack, every lane with its own toggled bases and its own
// accumulator, and adds the terms to the sums it is given in exactly
// the order the lane's single scan would. The AVX2 kernels
// (probe_amd64.s) serve all sixteen lanes per pass; the Go kernels
// below serve them four at a time and are the reference the AVX2 ones
// are tested against bit for bit (kernel_test.go).

// kernel is one batch's operands shared by its passes: the lanes'
// toggled cross-axis bases, interleaved per member (bases[k·Lanes+q]),
// and their toggled overall bases bs. Both kernels serve only the
// groups of four lanes that hold one of the batch's n lanes: the AVX2
// ones one group or all four.
type kernel struct {
	c     *Cluster
	n     int
	bases []float64
	bs    *[Lanes]float64
	avx2  bool
}

// rows adds every lane's terms over pack rows lo..hi−1 to sums, the
// rows' entries offset by their cached row bases and the lanes'
// toggled column bases. When vals is not nil it then adds the
// inserted rows' own terms: lane q's entry vals[k·Lanes+q] at member
// column k, where specified, under the lane's own row base own[q].
func (k *kernel) rows(lo, hi int, vals []float64, own, sums *[Lanes]float64) {
	c := k.c
	nc := len(c.memberCols)
	if nc == 0 || (lo >= hi && vals == nil) {
		return
	}
	s := c.packStride
	if k.avx2 {
		var pack, rbases, vp *float64
		if lo < hi {
			// The kernel reads the pack up to this entry and these row bases.
			_, _ = c.pack[(hi-1)*s+nc-1], c.packBases[hi-1]
			pack, rbases = &c.pack[lo*s], &c.packBases[lo]
		}
		if vals != nil {
			_ = vals[nc*Lanes-1]
			vp = &vals[0]
		}
		_ = k.bases[nc*Lanes-1]
		rowLanesAVX2(pack, s, hi-lo, nc, rbases, &k.bases[0], vp, own, k.bs, sums, k.n <= 4)
		return
	}
	for g := 0; g < k.n; g += 4 {
		for r := lo; r < hi; r++ {
			rowSums4(c.pack[r*s:][:nc], c.packBases[r], k.bases, g, k.bs, sums)
		}
	}
	if vals != nil {
		ownSums(vals[:nc*Lanes], k.bases, k.n, own, k.bs, sums)
	}
}

// rowSums4 adds lanes g..g+3's terms over one pack row to their sums:
// each entry is loaded and offset by the row base once, and each lane
// accumulates its own term in its own accumulator.
func rowSums4(row []float64, rowBase float64, cbT []float64, g int, bs, sums *[Lanes]float64) {
	b0, b1, b2, b3 := bs[g], bs[g+1], bs[g+2], bs[g+3]
	s0, s1, s2, s3 := sums[g], sums[g+1], sums[g+2], sums[g+3]
	cbT = cbT[:len(row)*Lanes]
	for k, v := range row {
		if math.IsNaN(v) {
			continue
		}
		cb := cbT[k*Lanes+g:][:4]
		d := v - rowBase
		s0 += math.Abs(d - cb[0] + b0)
		s1 += math.Abs(d - cb[1] + b1)
		s2 += math.Abs(d - cb[2] + b2)
		s3 += math.Abs(d - cb[3] + b3)
	}
	sums[g], sums[g+1], sums[g+2], sums[g+3] = s0, s1, s2, s3
}

// ownSums adds lanes 0..n−1's own-row terms to their sums: lane q's
// specified entries vals[k·Lanes+q], in k order, under its own row
// base own[q] and its toggled column bases.
func ownSums(vals, cbT []float64, n int, own, bs, sums *[Lanes]float64) {
	cbT = cbT[:len(vals)]
	for q := 0; q < n; q++ {
		for k := q; k < len(vals); k += Lanes {
			sums[q] = scanRow(sums[q], vals[k:k+1], own[q], cbT[k:k+1], bs[q])
		}
	}
}

// cols adds every column-insertion lane's terms to sums: each pack row
// scans its block under the lane's toggled row base bases[r·Lanes+q]
// and the unchanged column bases cb, then the lane's inserted entry
// vals[r·Lanes+q], where specified, under the inserted column's base
// own[q].
func (k *kernel) cols(cb, vals []float64, own, sums *[Lanes]float64) {
	c := k.c
	rows, nc := len(c.memberRows), len(c.memberCols)
	if rows == 0 {
		return
	}
	s := c.packStride
	rbT := k.bases[:rows*Lanes]
	vals = vals[:rows*Lanes]
	if k.avx2 {
		var cbp *float64
		if nc > 0 {
			_, _ = c.pack[(rows-1)*s+nc-1], cb[nc-1]
			cbp = &cb[0]
		}
		colLanesAVX2(&c.pack[0], s, rows, nc, cbp, &rbT[0], &vals[0], own, k.bs, sums, k.n <= 4)
		return
	}
	cb = cb[:nc]
	for g := 0; g < k.n; g += 4 {
		for r := 0; r < rows; r++ {
			colSums4(c.pack[r*s:][:nc], cb, rbT[r*Lanes+g:][:4], vals[r*Lanes+g:][:4], g, own, k.bs, sums)
		}
	}
}

// colSums4 adds lanes g..g+3's terms over one pack row to their sums:
// the row's specified entries under each lane's toggled row base rb[i]
// and the column bases cb, then each lane's inserted entry iv[i].
func colSums4(row, cb, rb, iv []float64, g int, own, bs, sums *[Lanes]float64) {
	rb0, rb1, rb2, rb3 := rb[0], rb[1], rb[2], rb[3]
	b0, b1, b2, b3 := bs[g], bs[g+1], bs[g+2], bs[g+3]
	s0, s1, s2, s3 := sums[g], sums[g+1], sums[g+2], sums[g+3]
	cb = cb[:len(row)]
	for k, v := range row {
		if math.IsNaN(v) {
			continue
		}
		s0 += math.Abs(v - rb0 - cb[k] + b0)
		s1 += math.Abs(v - rb1 - cb[k] + b1)
		s2 += math.Abs(v - rb2 - cb[k] + b2)
		s3 += math.Abs(v - rb3 - cb[k] + b3)
	}
	sums[g], sums[g+1], sums[g+2], sums[g+3] = s0, s1, s2, s3
	for i := 0; i < 4; i++ {
		sums[g+i] = scanRow(sums[g+i], iv[i:i+1], rb[i], own[g+i:g+i+1], bs[g+i])
	}
}
