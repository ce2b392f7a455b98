package cluster

import (
	"fmt"
	"math"
)

// Read-only probes: the toggled state of a cluster, computed without
// toggling.
//
// FLOC scores a candidate action by the residue, volume and shape the
// cluster would have after toggling one row or column, and admits it
// only if the toggled state still meets the constraints. A Probe
// derives all of that from the frozen pre-toggle state and writes
// nothing to the cluster, so an evaluation is a pure function of the
// cluster's bits and any number of evaluators may probe one cluster
// concurrently (the FLOC decide workers do).
//
// Probes come in batches. A Batch holds one to Lanes probes of one
// cluster and one kind — row or column, insertion or removal — and
// loads them in one stream over the cluster's cross-axis members:
// for row probes it walks the member columns in memberCols order
// through ColView, for column probes the member rows in memberRows
// order through RowView, and each lane reads its own entry. The
// lanes' values land directly in the layout the kernels read,
// interleaved per member (vals[k·Lanes+q] is lane q's value at member
// k), and so do their toggled cross-axis bases, computed when the
// batch is scored.
//
// Exactness: each probe kind replays its mutator's floating-point
// operands in their order, then scans in the order Residue would
// scan the toggled pack:
//
//   - Row insertion (AddRow): the total folds the row's entries in
//     memberCols order, each column base becomes (colSum[j]+v)/
//     (colCnt[j]+1), the row's own sum accumulates from 0. The existing
//     pack rows are scanned with the toggled column bases, the inserted
//     row last.
//   - Row removal (RemoveRow): the total unfolds the row in memberCols
//     order, column bases become (colSum[j]−v)/(colCnt[j]−1), and the
//     remaining rows are scanned in swap-with-last order — the last
//     block takes the removed row's position.
//   - Column insertion (AddCol): row bases become (rowSum+v)/(rowCnt+1)
//     and each row scans its pack block, then the inserted column's
//     entry.
//   - Column removal (RemoveCol): row bases become (rowSum−v)/(rowCnt−1)
//     and each row scans its block in three segments: the slots before
//     the removed column, the last slot (moved into its place), and the
//     slots after it.
//
// Every residue term keeps Residue's expression shape, so the
// probe returns the bits Residue returns after the real toggle
// (probe_test.go and kernel_test.go pin this against really toggled
// clones). The counts behind the volume ceiling, occupancy α and the
// overlap budget are integers adjusted by ±1, compared exactly as
// SatisfiesOccupancy and Overlap compare them.
//
// Every probe of a batch rescans the same frozen pack with its own
// bases, so Residues scores the lanes together: each pack entry is
// loaded and tested for NaN once, and each lane accumulates its own
// terms in its own accumulator, in exactly the order its single scan
// would. Three kinds run sixteen lanes per pass:
//
//   - Row insertions: one pass of the row kernel over the pack with
//     the lanes' toggled column bases, then an epilogue over the lanes'
//     own rows.
//   - Row removals: the row kernel from given sums, over the row
//     segments between the lanes' removed positions; at a removed
//     position its lanes take the last block's terms instead.
//   - Column insertions: the column kernel, whose lanes carry toggled
//     row bases, with each row's inserted entry last.
//
// Column removals are scored one lane at a time. Two implementations
// of the kernels return the same bits:
//
//   - On amd64 CPUs with AVX2 (detected once, at package init),
//     assembly kernels serve all sixteen lanes in one pass, four ymm
//     registers of four lanes each, or one register for a batch of at
//     most four (probe_amd64.s states why they are exact).
//   - Elsewhere, and under the purego build tag, the Go kernels of
//     probe_kernel.go serve the lanes in groups of four.

// Lanes is the most probes one Batch holds and one kernel pass scores:
// four ymm registers of four float64 lanes each.
const Lanes = 16

// Probe is one membership toggle of a cluster — row or column idx, in
// if absent and out if present — and answers for the toggled state.
// Probes live in a Batch and are valid until its next Load, Append or
// Drop.
type Probe struct {
	b            *Batch
	lane         int
	idx          int
	pos          int     // member position of idx; -1 when the toggle inserts it
	nRows, nCols int     // toggled shape
	volume       int     // toggled volume
	total        float64 // toggled total, folded in the mutator's order
	sum          float64 // insertion: the item's sum over the cross axis, from 0 in member order
	cnt          int     // the item's specified entries over the cross axis
}

// Batch holds one to Lanes probes of one cluster, all toggling rows or
// all columns, and all inserting or all removing. The zero value is
// ready to Load. A Batch owns the scratch it reuses across loads, about
// 2·Lanes floats per cross-axis member, so it must not be shared
// between goroutines; its probes point back at it, so it must not be
// copied either.
type Batch struct {
	c     *Cluster
	isRow bool
	ins   bool
	n     int
	ps    [Lanes]Probe
	vals  []float64 // lane values at the cross-axis members: vals[k·Lanes+q]
	bases []float64 // lane toggled cross-axis bases, same layout (loadBases)
	cross []float64 // per cross-axis member: sum, toggled count, unchanged base
	cb    []float64 // column probes: the member columns' unchanged bases
}

// Load empties b and targets it at toggling rows (isRow) or columns
// idxs of c, one lane each, in order. c's evaluation pack must be
// enabled (EnablePack), and c must not change while b is in use.
func (b *Batch) Load(c *Cluster, isRow bool, idxs ...int) {
	b.n = 0
	b.Append(c, isRow, idxs...)
}

// Append adds lanes toggling rows (isRow) or columns idxs of c after
// the batch's current lanes, folding each lane's toggled counts and
// total in one stream: O(|J|) per row lane, O(|I|) per column lane.
// The new lanes must be of the batch's cluster and kind, and the batch
// must not outgrow Lanes.
//
// deltavet:hotpath — the loader of every scored action.
func (b *Batch) Append(c *Cluster, isRow bool, idxs ...int) {
	if c.packStride == 0 {
		panic("cluster: Batch.Append: evaluation pack not enabled")
	}
	from, to := b.n, b.n+len(idxs)
	if len(idxs) == 0 || to > Lanes {
		panic(fmt.Sprintf("cluster: Batch.Append: %d lanes after %d", len(idxs), from))
	}
	pos, members := c.colPos, c.memberRows
	if isRow {
		pos, members = c.rowPos, c.memberCols
	}
	ins := pos[idxs[0]] < 0
	if from == 0 {
		b.c, b.isRow, b.ins = c, isRow, ins
		b.vals = growFloats(b.vals, len(members)*Lanes)
	} else if c != b.c || isRow != b.isRow {
		panic("cluster: Batch.Append: lanes of another cluster or axis")
	}
	nRows, nCols := len(c.memberRows), len(c.memberCols)
	if isRow {
		nRows += toggleStep(pos[idxs[0]])
	} else {
		nCols += toggleStep(pos[idxs[0]])
	}
	for q, x := range idxs {
		if (pos[x] < 0) != ins || ins != b.ins {
			panic("cluster: Batch.Append: insertions and removals in one batch")
		}
		p := &b.ps[from+q]
		p.b, p.lane, p.idx, p.pos = b, from+q, x, pos[x]
		p.nRows, p.nCols = nRows, nCols
	}
	b.n = to
	if len(idxs) == 1 {
		b.foldOne(&b.ps[from], members)
	} else {
		b.fold(from, to, members)
	}
}

// fold fills lanes from..to−1, two or more, in one stream over the
// cross-axis members: for each member, in member order, its view —
// ColView for row probes, RowView for column probes — yields every
// lane's entry, which each lane stores and folds into its count, own
// sum and toggled total.
func (b *Batch) fold(from, to int, members []int) {
	c := b.c
	var idx, cnt [Lanes]int
	var sum, total [Lanes]float64
	n := to - from
	for q := range idx[:n] {
		idx[q], total[q] = b.ps[from+q].idx, c.total
	}
	for k, x := range members {
		var line []float64
		if b.isRow {
			line = c.m.ColView(x)
		} else {
			line = c.m.RowView(x)
		}
		vals := b.vals[k*Lanes+from : k*Lanes+to]
		if b.ins {
			for q := 0; q < n; q++ {
				v := line[idx[q]]
				vals[q] = v
				if !math.IsNaN(v) {
					cnt[q]++
					sum[q] += v
					total[q] += v
				}
			}
		} else {
			for q := 0; q < n; q++ {
				v := line[idx[q]]
				vals[q] = v
				if !math.IsNaN(v) {
					cnt[q]++
					total[q] -= v
				}
			}
		}
	}
	for q := 0; q < n; q++ {
		b.ps[from+q].setFolds(cnt[q], sum[q], total[q])
	}
}

// foldOne is fold for a lone lane: it walks its own row (column)
// through one view, a contiguous read where the per-member views would
// touch a cache line per member, and folds in the same member order.
func (b *Batch) foldOne(p *Probe, members []int) {
	c := b.c
	var line []float64
	if b.isRow {
		line = c.m.RowView(p.idx)
	} else if len(members) > 0 {
		// As AddCol: a row-less cluster never builds the mirror.
		line = c.m.ColView(p.idx)
	}
	cnt, sum, total := 0, 0.0, c.total
	for k, x := range members {
		v := line[x]
		b.vals[k*Lanes+p.lane] = v
		if math.IsNaN(v) {
			continue
		}
		cnt++
		if b.ins {
			sum += v
			total += v
		} else {
			total -= v
		}
	}
	p.setFolds(cnt, sum, total)
}

// setFolds records a lane's folded count, own sum and toggled total,
// and the toggled volume they give.
func (p *Probe) setFolds(cnt int, sum, total float64) {
	p.cnt, p.sum, p.total = cnt, sum, total
	p.volume = p.b.c.volume + toggleStep(p.pos)*cnt
}

// loadBases fills the lanes' toggled cross-axis bases, which only a
// residue reads: for each cross-axis member its sum, toggled count and
// unchanged base into b.cross, then each lane's base (toggledBases),
// and for column probes the member columns' unchanged bases into b.cb.
func (b *Batch) loadBases(avx2 bool) {
	c := b.c
	members := c.memberRows
	if b.isRow {
		members = c.memberCols
	}
	step := 1.0
	if !b.ins {
		step = -1
	}
	b.bases = growFloats(b.bases, len(members)*Lanes)
	b.cross = growFloats(b.cross, 3*len(members))
	cross := b.cross
	for k, x := range members {
		if b.isRow {
			s, n := c.colSum[x], float64(c.colCnt[x])
			cross[3*k], cross[3*k+1], cross[3*k+2] = s, n+step, s/n
		} else {
			cross[3*k], cross[3*k+1], cross[3*k+2] = c.rowSum[x], float64(c.rowCnt[x])+step, c.packBases[k]
		}
	}
	toggledBases(b.vals, b.bases, cross, 0, b.n, !b.ins, avx2)
	if !b.isRow {
		b.cb = growFloats(b.cb, len(c.memberCols))
		for k, j := range c.memberCols {
			b.cb[k] = c.colSum[j] / float64(c.colCnt[j])
		}
	}
}

// toggledBases sets lanes from..to−1 of bases to the lanes' toggled
// cross-axis bases: for member k with sum s, toggled count n and
// unchanged base old (cross[3k:3k+3]), lane q's base is (s + v)/n —
// (s − v)/n when sub is set — where its entry v = vals[k·Lanes+q] is
// specified, and old where it is missing: the division the mutator
// leaves Residue to hoist. With avx2 set the AVX2 kernel serves
// batches of more than four lanes; it writes every lane, the ones
// outside from..to−1 from whatever their values hold.
func toggledBases(vals, bases, cross []float64, from, to int, sub, avx2 bool) {
	members := len(cross) / 3
	if members == 0 {
		return
	}
	if avx2 && to-from > 4 {
		_, _ = vals[members*Lanes-1], bases[members*Lanes-1]
		toggledBasesAVX2(&vals[0], &bases[0], &cross[0], members, sub)
		return
	}
	for k := 0; k < members; k++ {
		s, n, old := cross[3*k], cross[3*k+1], cross[3*k+2]
		vs, bs := vals[k*Lanes:][from:to], bases[k*Lanes:][from:to]
		for q, v := range vs {
			switch {
			case math.IsNaN(v):
				bs[q] = old
			case sub:
				bs[q] = (s - v) / n
			default:
				bs[q] = (s + v) / n
			}
		}
	}
}

// toggleStep is +1 for an insertion (pos < 0) and −1 for a removal.
func toggleStep(pos int) int {
	if pos < 0 {
		return 1
	}
	return -1
}

// growFloats returns s resized to n, reusing its storage when it fits
// and doubling it when it does not.
//
// deltavet:coldpath — amortized: only the first loads after a
// member-count high-water mark allocate.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, 2*n)
	}
	return s[:n]
}

// Len returns the number of probes in b.
func (b *Batch) Len() int { return b.n }

// Probe returns lane q's probe.
func (b *Batch) Probe(q int) *Probe {
	if q >= b.n {
		panic(fmt.Sprintf("cluster: Batch.Probe(%d) of %d lanes", q, b.n))
	}
	return &b.ps[q]
}

// Drop removes lane q from b: the last lane moves into its place, as
// RemoveRow moves the last member, and the batch shrinks by one. The
// moved lane's probe is then Probe(q).
func (b *Batch) Drop(q int) {
	last := b.n - 1
	if q > last {
		panic(fmt.Sprintf("cluster: Batch.Drop(%d) of %d lanes", q, b.n))
	}
	if q != last {
		copyLane(b.vals, q, last)
		b.ps[q] = b.ps[last]
		b.ps[q].lane = q
	}
	b.n = last
}

// copyLane copies lane src of an interleaved layout into lane dst.
func copyLane(xs []float64, dst, src int) {
	for k := 0; k < len(xs); k += Lanes {
		xs[k+dst] = xs[k+src]
	}
}

// Item returns the probed item: row idx when isRow, column idx
// otherwise.
func (p *Probe) Item() (isRow bool, idx int) { return p.b.isRow, p.idx }

// Inserts reports whether the toggle inserts the item (false: removes
// it).
func (p *Probe) Inserts() bool { return p.pos < 0 }

// Volume returns the toggled cluster's volume.
func (p *Probe) Volume() int { return p.volume }

// NumRows returns the toggled cluster's row count.
func (p *Probe) NumRows() int { return p.nRows }

// NumCols returns the toggled cluster's column count.
func (p *Probe) NumCols() int { return p.nCols }

// SatisfiesOccupancy reports what SatisfiesOccupancy(alpha) would
// report after the toggle: the same float64(count) < α·n comparisons,
// on the toggled counts.
//
// deltavet:hotpath — the occupancy verdict of every scored action.
func (p *Probe) SatisfiesOccupancy(alpha float64) bool {
	b := p.b
	c := b.c
	if p.nRows == 0 || p.nCols == 0 {
		return true
	}
	step := toggleStep(p.pos)
	// The toggled axis: the other members' counts are unchanged and
	// the toggled item, if inserted, brings cnt entries.
	items, itemCnt, crossCnt := c.memberRows, c.rowCnt, c.colCnt
	need, crossNeed := alpha*float64(p.nCols), alpha*float64(p.nRows)
	cross := c.memberCols
	if !b.isRow {
		items, itemCnt, crossCnt = c.memberCols, c.colCnt, c.rowCnt
		need, crossNeed = crossNeed, need
		cross = c.memberRows
	}
	for _, x := range items {
		if x != p.idx && float64(itemCnt[x]) < need {
			return false
		}
	}
	if p.pos < 0 && float64(p.cnt) < need {
		return false
	}
	// The cross axis: each member's count moves by one where the
	// toggled item is specified.
	for k, x := range cross {
		n := crossCnt[x]
		if !math.IsNaN(b.vals[k*Lanes+p.lane]) {
			n += step
		}
		if float64(n) < crossNeed {
			return false
		}
	}
	return true
}

// Overlap returns what Overlap(o) would return after the toggle: the
// pre-toggle intersection counts, with the toggled axis moved by one
// when o holds the item. o must be another cluster than the probed one.
//
// deltavet:hotpath — the overlap verdict of every scored insertion.
func (p *Probe) Overlap(o *Cluster) int {
	rows, cols := p.b.c.intersection(o)
	if p.b.isRow && o.rowPos[p.idx] >= 0 {
		rows += toggleStep(p.pos)
	}
	if !p.b.isRow && o.colPos[p.idx] >= 0 {
		cols += toggleStep(p.pos)
	}
	return rows * cols
}

// Residue returns the toggled cluster's residue: the bits the
// cluster's Residue would return after the toggle. It scores the whole
// batch; Residues serves every lane from the same pass.
func (p *Probe) Residue() float64 {
	var out [Lanes]float64
	p.b.Residues(out[:])
	return out[p.lane]
}

// Residues sets out[q] to Probe(q).Residue() for every lane of b,
// in one pass over the cluster's pack for insertions and row removals
// (one per group of four lanes on the portable kernels). Duplicate
// probes are allowed.
//
// deltavet:hotpath — the batched exact gain kernel of the decide phase.
func (b *Batch) Residues(out []float64) {
	b.residues(out, useAVX2)
}

// residues is Residues on the AVX2 kernels when avx2 is set and on the
// portable ones otherwise; both return the same bits. A lane whose
// toggled volume is 0 reports 0, as Residue does: its cluster has
// no specified entry, so its NaN bases are never read.
func (b *Batch) residues(out []float64, avx2 bool) {
	if len(out) < b.n {
		panic(fmt.Sprintf("cluster: Batch.Residues: %d lanes, %d results", b.n, len(out)))
	}
	sums := b.sums(avx2)
	for q := 0; q < b.n; q++ {
		if v := b.ps[q].volume; v == 0 {
			out[q] = 0
		} else {
			out[q] = sums[q] / float64(v)
		}
	}
}

// sums returns every lane's sum of residue terms over the toggled
// cluster. Lanes past n repeat lane n−1; their sums are discarded.
func (b *Batch) sums(avx2 bool) (sums [Lanes]float64) {
	n := b.n
	if n == 0 {
		panic("cluster: Batch.Residues: no lanes")
	}
	var bs, own [Lanes]float64 // the toggled overall base; the inserted item's base
	for q := 0; q < n; q++ {
		p := &b.ps[q]
		bs[q] = p.total / float64(p.volume)
		if b.ins {
			own[q] = p.sum / float64(p.cnt)
		}
	}
	for q := n; q < Lanes; q++ {
		bs[q], own[q] = bs[n-1], own[n-1]
	}
	b.loadBases(avx2)
	if !b.isRow && !b.ins {
		for q := 0; q < n; q++ {
			sums[q] = b.removeCol(&b.ps[q], bs[q])
		}
		return sums
	}
	for q := n; q < Lanes; q++ {
		copyLane(b.vals, q, n-1)
		copyLane(b.bases, q, n-1)
	}
	k := kernel{c: b.c, n: n, bases: b.bases, bs: &bs, avx2: avx2}
	switch {
	case b.isRow && b.ins:
		// The inserted row is the toggled pack's last block.
		k.rows(0, len(b.c.memberRows), b.vals, &own, &sums)
	case b.isRow:
		b.removeRows(&k, &sums)
	default:
		k.cols(b.cb, b.vals, &own, &sums)
	}
	return sums
}

// removeRows adds every row-removal lane's terms to sums, in
// RemoveRow's swap-with-last order: the remaining rows are scanned in
// pack order, except that at its removed position a lane scans the
// last block instead, and the last block is not scanned in its own
// place. The row kernel runs over the segments between the lanes'
// removed positions; at each such position it scores the position's
// block and the last block from the same sums, and each lane keeps
// the one its own scan reads there.
func (b *Batch) removeRows(k *kernel, sums *[Lanes]float64) {
	last := len(b.c.memberRows) - 1
	var at [Lanes]int
	n := 0
	for q := 0; q < b.n; q++ {
		if p := b.ps[q].pos; p < last {
			at[n] = p
			n++
		}
	}
	sortInts(at[:n])
	start := 0
	for i, p := range at[:n] {
		if i > 0 && p == at[i-1] {
			continue
		}
		k.rows(start, p, nil, nil, sums)
		here, moved := *sums, *sums
		k.rows(p, p+1, nil, nil, &here)
		k.rows(last, last+1, nil, nil, &moved)
		for q := range sums {
			if q < b.n && b.ps[q].pos == p {
				sums[q] = moved[q]
			} else {
				sums[q] = here[q]
			}
		}
		start = p + 1
	}
	k.rows(start, last, nil, nil, sums)
}

// sortInts sorts a handful of ints in place.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// removeCol returns one column-removal lane's sum of residue terms:
// each row scans its block in RemoveCol's three segments under the
// lane's toggled row base, with its toggled overall base base.
func (b *Batch) removeCol(p *Probe, base float64) float64 {
	c := b.c
	s := c.packStride
	nc := len(c.memberCols)
	cb := b.cb
	pos, last := p.pos, nc-1
	sum := 0.0
	for r := range c.memberRows {
		rowBase := b.bases[r*Lanes+p.lane]
		blk := c.pack[r*s : r*s+nc]
		sum = scanRow(sum, blk[:pos], rowBase, cb[:pos], base)
		if pos < last {
			sum = scanRow(sum, blk[last:], rowBase, cb[last:], base)
			sum = scanRow(sum, blk[pos+1:last], rowBase, cb[pos+1:last], base)
		}
	}
	return sum
}

// scanRow adds one row's residue terms to sum: |v − rowBase − cb[k] +
// base| for every specified v = vals[k], in k order, with Residue's
// term shape.
func scanRow(sum float64, vals []float64, rowBase float64, cb []float64, base float64) float64 {
	cb = cb[:len(vals)]
	for k, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		sum += math.Abs(v - rowBase - cb[k] + base)
	}
	return sum
}
