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
// Exactness: each probe kind replays its mutator's floating-point
// operands in their order, then scans in the order ResidueWith would
// scan the toggled pack:
//
//   - Row insertion (AddRow): the total folds the row's entries in
//     memberCols order, each column sum becomes colSum[j]+v, the row's
//     own sum accumulates from 0. The existing pack rows are scanned
//     with the toggled column bases, the inserted row last.
//   - Row removal (RemoveRow): the total unfolds the row in memberCols
//     order, column sums become colSum[j]−v, and the remaining rows are
//     scanned in swap-with-last order — the last block takes the
//     removed row's position.
//   - Column insertion (AddCol): row bases become (rowSum+v)/(rowCnt+1)
//     and each row scans its pack block, then the inserted column's
//     entry.
//   - Column removal (RemoveCol): row bases become (rowSum−v)/(rowCnt−1)
//     and each row scans its block in three segments: the slots before
//     the removed column, the last slot (moved into its place), and the
//     slots after it.
//
// Every residue term keeps ResidueWith's expression shape, so the
// probe returns the bits ResidueWith returns after the real toggle
// (probe_test.go pins this against really toggled clones). The counts
// behind the volume ceiling, occupancy α and the overlap budget are
// integers adjusted by ±1, compared exactly as SatisfiesOccupancy and
// Overlap compare them.
//
// Row insertions dominate the exact decide phase, and every one of a
// cluster's candidates rescans the same frozen pack with its own
// column bases. RowInsertionResidues therefore serves up to four
// candidates per pass: each pack entry is loaded and offset by its row
// base once, and each candidate accumulates its own terms in its own
// accumulator, in exactly the order its single scan would.

// Probe is one membership toggle of a cluster — row or column idx, in
// if absent and out if present — and answers for the toggled state.
// Load targets it; the zero value is ready to Load. A Probe owns the
// scratch it reuses across loads, so it must not be shared between
// goroutines.
type Probe struct {
	c            *Cluster
	isRow        bool
	idx          int
	pos          int       // member position of idx; -1 when the toggle inserts it
	nRows, nCols int       // toggled shape
	volume       int       // toggled volume
	total        float64   // toggled total, folded in the mutator's order
	sum          float64   // insertion: the item's sum over the cross axis, from 0 in member order
	cnt          int       // the item's specified entries over the cross axis
	vals         []float64 // the item's values at the cross-axis members, in internal order
	cb           []float64 // column bases the scan reads
}

// Load targets p at toggling row (isRow) or column idx of c, folding
// the toggled counts and total in O(|J|) for a row and O(|I|) for a
// column. c's evaluation pack must be enabled (EnablePack), and c must
// not change while p is in use.
//
// deltavet:hotpath — one call per scored action.
func (p *Probe) Load(c *Cluster, isRow bool, idx int) {
	if c.packStride == 0 {
		panic("cluster: Probe.Load: evaluation pack not enabled")
	}
	p.c, p.isRow, p.idx = c, isRow, idx
	p.nRows, p.nCols = len(c.memberRows), len(c.memberCols)
	var members []int
	var line []float64
	if isRow {
		p.pos = c.rowPos[idx]
		members = c.memberCols
		line = c.m.RowView(idx)
		p.nRows += toggleStep(p.pos)
	} else {
		p.pos = c.colPos[idx]
		members = c.memberRows
		if len(members) > 0 {
			// The same guard as AddCol: a column probe on a row-less
			// cluster never builds the column-major mirror.
			line = c.m.ColView(idx)
		}
		p.nCols += toggleStep(p.pos)
	}
	vals := growFloats(p.vals, len(members))
	p.vals = vals
	total, vol, sum, cnt := c.total, c.volume, 0.0, 0
	if p.pos < 0 {
		for k, x := range members {
			v := line[x]
			vals[k] = v
			if math.IsNaN(v) {
				continue
			}
			sum += v
			cnt++
			total += v
			vol++
		}
	} else {
		for k, x := range members {
			v := line[x]
			vals[k] = v
			if math.IsNaN(v) {
				continue
			}
			cnt++
			total -= v
			vol--
		}
	}
	p.total, p.volume, p.sum, p.cnt = total, vol, sum, cnt
}

// toggleStep is +1 for an insertion (pos < 0) and −1 for a removal.
func toggleStep(pos int) int {
	if pos < 0 {
		return 1
	}
	return -1
}

// growFloats returns s resized to n, reusing its storage when it fits.
//
// deltavet:coldpath — amortized: only the first probes after a
// member-count high-water mark allocate.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Item returns the probed item: row idx when isRow, column idx
// otherwise.
func (p *Probe) Item() (isRow bool, idx int) { return p.isRow, p.idx }

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
	c := p.c
	if p.nRows == 0 || p.nCols == 0 {
		return true
	}
	step := toggleStep(p.pos)
	// The toggled axis: the other members' counts are unchanged and
	// the toggled item, if inserted, brings cnt entries.
	items, itemCnt, crossCnt := c.memberRows, c.rowCnt, c.colCnt
	need, crossNeed := alpha*float64(p.nCols), alpha*float64(p.nRows)
	if !p.isRow {
		items, itemCnt, crossCnt = c.memberCols, c.colCnt, c.rowCnt
		need, crossNeed = crossNeed, need
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
	cross := c.memberCols
	if !p.isRow {
		cross = c.memberRows
	}
	for k, x := range cross {
		n := crossCnt[x]
		if !math.IsNaN(p.vals[k]) {
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
	rows, cols := p.c.intersection(o)
	if p.isRow && o.rowPos[p.idx] >= 0 {
		rows += toggleStep(p.pos)
	}
	if !p.isRow && o.colPos[p.idx] >= 0 {
		cols += toggleStep(p.pos)
	}
	return rows * cols
}

// Residue returns the toggled cluster's residue under mean: the bits
// ResidueWith(mean) would return after the toggle. Cost: O(volume).
//
// deltavet:hotpath — the exact gain kernel.
func (p *Probe) Residue(mean ResidueMean) float64 {
	if p.volume == 0 {
		return 0
	}
	if p.isRow && p.pos < 0 {
		var out [1]float64
		rowInsertionResidues(&[4]*Probe{p, p, p, p}, 1, mean, out[:])
		return out[0]
	}
	c := p.c
	base := p.total / float64(p.volume)
	s := c.packStride
	sum := 0.0
	if p.isRow {
		cb := p.rowToggleBases()
		last := len(c.memberRows) - 1
		for r := 0; r < last; r++ {
			src := r
			if r == p.pos {
				src = last
			}
			sum = scanRow(sum, c.pack[src*s:src*s+len(cb)], c.packBases[src], cb, base, mean)
		}
		return sum / float64(p.volume)
	}
	nc := len(c.memberCols)
	cb := growFloats(p.cb, nc)
	p.cb = cb
	for k, j := range c.memberCols {
		cb[k] = c.colSum[j] / float64(c.colCnt[j])
	}
	step := toggleStep(p.pos)
	// The inserted column's base; 0/0 when it has no specified entries,
	// in which case no term reads it.
	itemBase := [1]float64{p.sum / float64(p.cnt)}
	for r, i := range c.memberRows {
		v := p.vals[r]
		var rowBase float64
		switch {
		case math.IsNaN(v):
			rowBase = c.rowSum[i] / float64(c.rowCnt[i])
		case step > 0:
			rowBase = (c.rowSum[i] + v) / float64(c.rowCnt[i]+1)
		default:
			rowBase = (c.rowSum[i] - v) / float64(c.rowCnt[i]-1)
		}
		blk := c.pack[r*s : r*s+nc]
		if step > 0 {
			sum = scanRow(sum, blk, rowBase, cb, base, mean)
			sum = scanRow(sum, p.vals[r:r+1], rowBase, itemBase[:], base, mean)
			continue
		}
		pos, last := p.pos, nc-1
		sum = scanRow(sum, blk[:pos], rowBase, cb[:pos], base, mean)
		if pos < last {
			sum = scanRow(sum, blk[last:], rowBase, cb[last:], base, mean)
			sum = scanRow(sum, blk[pos+1:last], rowBase, cb[pos+1:last], base, mean)
		}
	}
	return sum / float64(p.volume)
}

// rowToggleBases fills p.cb with the toggled column bases of a row
// toggle: (colSum ± v)/(colCnt ± 1) where the row is specified and the
// unchanged quotient elsewhere — the divisions ResidueWith hoists
// after AddRow or RemoveRow. A column left without specified entries
// gets 0/0, which no term reads.
func (p *Probe) rowToggleBases() []float64 {
	c := p.c
	cb := growFloats(p.cb, len(c.memberCols))
	p.cb = cb
	ins := p.pos < 0
	for k, j := range c.memberCols {
		v := p.vals[k]
		switch {
		case math.IsNaN(v):
			cb[k] = c.colSum[j] / float64(c.colCnt[j])
		case ins:
			cb[k] = (c.colSum[j] + v) / float64(c.colCnt[j]+1)
		default:
			cb[k] = (c.colSum[j] - v) / float64(c.colCnt[j]-1)
		}
	}
	return cb
}

// scanRow adds one row's residue terms to sum: φ(v − rowBase − cb[k] +
// base) for every specified v = vals[k], in k order, with ResidueWith's
// term shapes.
func scanRow(sum float64, vals []float64, rowBase float64, cb []float64, base float64, mean ResidueMean) float64 {
	cb = cb[:len(vals)]
	if mean == SquaredMean {
		for k, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			rr := v - rowBase - cb[k] + base
			sum += rr * rr
		}
		return sum
	}
	for k, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		sum += math.Abs(v - rowBase - cb[k] + base)
	}
	return sum
}

// RowInsertionResidues sets out[q] to ps[q].Residue(mean) for one to
// four row-insertion probes of the same cluster, in one pass over the
// cluster's pack. Duplicate candidates are allowed.
//
// deltavet:hotpath — the batched exact gain kernel of the decide phase.
func RowInsertionResidues(ps []Probe, mean ResidueMean, out []float64) {
	n := len(ps)
	if n == 0 || n > 4 || len(out) < n {
		panic(fmt.Sprintf("cluster: RowInsertionResidues: %d probes, %d results", n, len(out)))
	}
	var lanes [4]*Probe
	for q := range lanes {
		p := &ps[min(q, n-1)]
		if !p.isRow || p.pos >= 0 || p.c != ps[0].c {
			panic("cluster: RowInsertionResidues: not row insertions into one cluster")
		}
		lanes[q] = p
	}
	rowInsertionResidues(&lanes, n, mean, out)
}

// rowInsertionResidues is the four-lane kernel behind
// RowInsertionResidues and the single row-insertion Residue. Lanes at
// and past n repeat lane n−1; their sums are discarded. A lane whose
// toggled volume is 0 reports 0, as ResidueWith does: its cluster has
// no specified pack entry, so its NaN base is never read.
func rowInsertionResidues(ps *[4]*Probe, n int, mean ResidueMean, out []float64) {
	c := ps[0].c
	var cbs [4][]float64
	var bs [4]float64
	for q, p := range ps {
		if q >= n {
			cbs[q], bs[q] = cbs[n-1], bs[n-1]
			continue
		}
		cbs[q] = p.rowToggleBases()
		bs[q] = p.total / float64(p.volume)
	}
	cb0 := cbs[0]
	nc := len(cb0)
	cb1, cb2, cb3 := cbs[1][:nc], cbs[2][:nc], cbs[3][:nc]
	b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
	var s0, s1, s2, s3 float64
	s := c.packStride
	rbases := c.packBases[:len(c.memberRows)]
	if mean == SquaredMean {
		for r, rowBase := range rbases {
			row := c.pack[r*s:][:nc]
			for k, v := range row {
				if math.IsNaN(v) {
					continue
				}
				d := v - rowBase
				r0 := d - cb0[k] + b0
				s0 += r0 * r0
				r1 := d - cb1[k] + b1
				s1 += r1 * r1
				r2 := d - cb2[k] + b2
				s2 += r2 * r2
				r3 := d - cb3[k] + b3
				s3 += r3 * r3
			}
		}
	} else {
		for r, rowBase := range rbases {
			row := c.pack[r*s:][:nc]
			for k, v := range row {
				if math.IsNaN(v) {
					continue
				}
				d := v - rowBase
				s0 += math.Abs(d - cb0[k] + b0)
				s1 += math.Abs(d - cb1[k] + b1)
				s2 += math.Abs(d - cb2[k] + b2)
				s3 += math.Abs(d - cb3[k] + b3)
			}
		}
	}
	sums := [4]float64{s0, s1, s2, s3}
	for q := 0; q < n; q++ {
		p := ps[q]
		if p.volume == 0 {
			out[q] = 0
			continue
		}
		// The inserted row is the toggled pack's last block.
		sum := scanRow(sums[q], p.vals, p.sum/float64(p.cnt), cbs[q], bs[q], mean)
		out[q] = sum / float64(p.volume)
	}
}
