package cluster

// The evaluation pack: a dense, row-major copy of the member submatrix
// in internal member order.
//
// The residue kernel scans memberRows × memberCols of the backing
// matrix. In row-major storage those entries are a gather: each member
// row touches up to |J| scattered cache lines, and every access pays a
// memberCols indirection plus an unprovable bounds check. The pack
// stores the same float64 bits contiguously — entry (r, k) of the pack
// is the matrix value at (memberRows[r], memberCols[k]), missing
// entries included as NaN — so the kernel's inner loop becomes a
// unit-stride scan of a block that fits in L1 for typical clusters.
//
// Exactness: the pack holds bit copies and the kernel consumes them in
// the same (r, k) order as the row-major gather, so every float
// operand and every accumulation step is unchanged — the pack is a
// layout change, not a reassociation. The membership mutators maintain
// it with the same swap-with-last moves they apply to memberRows and
// memberCols, so internal member order and pack order never diverge
// (the bit-identity and golden-fingerprint tests pin this).
//
// Alongside the value blocks the pack caches one base per member row
// (packBases), the quotient rowSum/rowCnt the kernel would otherwise
// divide out on every scan. Mutators recache it from the same operand
// bits whenever they touch a row's sums, so reading the cache instead
// of dividing is operand-preserving too — see packRefreshBase.
//
// The pack is opt-in (EnablePack) because it costs |I|·stride extra
// floats per cluster and a copy per membership change; the FLOC engine
// enables it on its clusters, where thousands of residue scans per
// decide phase repay the bookkeeping many times over. The stride is
// the smallest power of two (≥ 4) that fits the member columns, so a
// typical cluster's whole pack fits in a few KiB of L1 — a stride of
// the full matrix width would spread |J| useful floats over a
// Cols-wide block and turn every scan into an L2 streaming read. The
// stride grows (never shrinks) when a column insertion outgrows it;
// see packGrowStride.

// EnablePack builds the evaluation pack for the current membership and
// keeps it maintained through every later membership change
// (deltavet:writer). It is idempotent. Clusters created by Clone or
// filled by CopyFrom inherit the source's pack state.
//
// deltavet:coldpath — one-time setup; never on the toggle path.
func (c *Cluster) EnablePack() {
	if c.packStride > 0 {
		return
	}
	c.packStride = packStrideFor(len(c.memberCols))
	c.rebuildPack()
}

// packStrideFor returns the pack block stride for nCols member
// columns: the smallest power of two ≥ max(4, nCols). Keeping it
// positive is load-bearing — packStride 0 means "pack disabled".
func packStrideFor(nCols int) int {
	s := 4
	for s < nCols {
		s *= 2
	}
	return s
}

// PackEnabled reports whether the evaluation pack is active.
func (c *Cluster) PackEnabled() bool { return c.packStride > 0 }

// rebuildPack regathers the whole pack from the matrix
// (deltavet:writer). Used when the membership changes wholesale
// (EnablePack, CopyFrom from a pack-less source).
//
// deltavet:coldpath — wholesale rebuilds happen at setup and restore,
// not per toggle.
func (c *Cluster) rebuildPack() {
	if c.packStride < len(c.memberCols) {
		c.packStride = packStrideFor(len(c.memberCols))
	}
	c.packSetLen(len(c.memberRows))
	s := c.packStride
	for r, i := range c.memberRows {
		row := c.m.RowView(i)
		dst := c.pack[r*s : r*s+len(c.memberCols)]
		for k, j := range c.memberCols {
			dst[k] = row[j]
		}
	}
	c.packRefreshBases()
}

// packRefreshBase recaches the row base of member position r, matrix
// row i (deltavet:writer, deltavet:hotpath). The cached value is rowSum[i]/rowCnt[i] —
// the exact division ResidueWith used to perform per scan — computed
// from the same operand bits, so caching it at mutation time instead
// of scan time changes no output bit (IEEE 754 division is
// deterministic). A row with rowCnt 0 caches 0/0 = NaN; the residue
// kernel never consumes it, because such a row's pack entries are all
// NaN and are skipped individually.
func (c *Cluster) packRefreshBase(r, i int) {
	c.packBases[r] = c.rowSum[i] / float64(c.rowCnt[i])
}

// packRefreshBases recaches every member row's base
// (deltavet:writer, deltavet:hotpath). Column mutators call it after touching the
// cross-axis sums; rows whose sums were not touched recompute the
// identical quotient, so the refresh is always safe.
func (c *Cluster) packRefreshBases() {
	bases := c.packBases[:len(c.memberRows)]
	for r, i := range c.memberRows {
		bases[r] = c.rowSum[i] / float64(c.rowCnt[i])
	}
}

// packSetLen resizes the pack to nRows blocks (deltavet:writer,
// deltavet:hotpath). The first build allocates exactly what it needs:
// every FLOC job builds a pack per cluster, so spare capacity there is
// paid by every job. Later growth doubles, so steady-state toggles
// never allocate.
func (c *Cluster) packSetLen(nRows int) {
	if cap(c.packBases) >= nRows {
		c.packBases = c.packBases[:nRows]
	} else {
		//deltavet:ignore hotalloc reason=amortized geometric growth; steady-state toggles take the cap branch above
		nb := make([]float64, nRows, packCap(cap(c.packBases), nRows))
		copy(nb, c.packBases)
		c.packBases = nb
	}
	need := nRows * c.packStride
	if cap(c.pack) >= need {
		c.pack = c.pack[:need]
		return
	}
	//deltavet:ignore hotalloc reason=amortized geometric growth; steady-state toggles take the cap branch above
	np := make([]float64, need, packCap(cap(c.pack), need))
	copy(np, c.pack)
	c.pack = np
}

// packCap is the capacity for growing a pack backing of capacity old
// to need entries: exact for the first build (old == 0), doubled after.
func packCap(old, need int) int {
	if old == 0 {
		return need
	}
	return 2 * need
}

// packGrowStride widens the pack blocks after a column insertion has
// outgrown the stride (deltavet:writer). The caller has already
// appended to memberCols, so each existing block holds
// len(memberCols)−1 valid slots. Blocks move highest-first: block r's
// destination r·newS starts at or past the end of every lower block's
// source (r·newS ≥ r·oldS ≥ (r−1)·oldS + oldS), so the in-place
// widening never overwrites bits it still has to move. The stride
// never shrinks, so removals never restructure.
//
// deltavet:coldpath — runs only when an insertion outgrows the stride,
// O(log maxCols) times over a cluster's whole lifetime.
func (c *Cluster) packGrowStride() {
	oldS := c.packStride
	newS := oldS * 2
	for newS < len(c.memberCols) {
		newS *= 2
	}
	nRows := len(c.memberRows)
	nb := len(c.memberCols) - 1
	need := nRows * newS
	if cap(c.pack) >= need {
		c.pack = c.pack[:need]
	} else {
		np := make([]float64, need, 2*need)
		copy(np, c.pack)
		c.pack = np
	}
	for r := nRows - 1; r > 0; r-- {
		copy(c.pack[r*newS:r*newS+nb], c.pack[r*oldS:r*oldS+nb])
	}
	c.packStride = newS
}

// packAppendRow gathers matrix row i (the just-appended last member
// row) into a new pack block (deltavet:writer, deltavet:hotpath). row
// is the matrix row's storage, passed in because the caller already
// holds it.
func (c *Cluster) packAppendRow(row []float64) {
	c.packSetLen(len(c.memberRows))
	s := c.packStride
	r := len(c.memberRows) - 1
	dst := c.pack[r*s : r*s+len(c.memberCols)]
	for k, j := range c.memberCols {
		dst[k] = row[j]
	}
}

// packRemoveRow mirrors RemoveRow's swap-with-last on the pack blocks:
// the last block overwrites block pos, then the pack shrinks by one
// block (deltavet:writer, deltavet:hotpath).
func (c *Cluster) packRemoveRow(pos int) {
	s := c.packStride
	last := len(c.pack)/s - 1
	if pos != last {
		copy(c.pack[pos*s:(pos+1)*s], c.pack[last*s:(last+1)*s])
		// The moved row's sums were untouched, so its cached base moves
		// with it unchanged.
		c.packBases[pos] = c.packBases[last]
	}
	c.pack = c.pack[:last*s]
	c.packBases = c.packBases[:last]
}

// packAppendCol gathers matrix column j (the just-appended last member
// column) into slot len(memberCols)-1 of every pack block
// (deltavet:writer, deltavet:hotpath). col is the column's mirror
// storage, passed in because the caller already holds it.
func (c *Cluster) packAppendCol(col []float64) {
	s := c.packStride
	k := len(c.memberCols) - 1
	for r, i := range c.memberRows {
		c.pack[r*s+k] = col[i]
	}
}

// packRemoveCol mirrors RemoveCol's swap-with-last on every pack block
// (deltavet:writer, deltavet:hotpath).
func (c *Cluster) packRemoveCol(pos int) {
	s := c.packStride
	last := len(c.memberCols) // caller truncated memberCols already; last slot is at the old end
	for r := 0; r < len(c.pack)/s; r++ {
		c.pack[r*s+pos] = c.pack[r*s+last]
	}
}
