//go:build !purego

package cluster

import "deltacluster/internal/cpu"

// useAVX2 reports whether the sixteen-lane AVX2 kernels serve the
// batched probes: on every CPU with AVX2 (cpu.AVX2). The purego build
// tag and every other GOARCH compile the portable four-lane kernels
// only (probe_generic.go).
var useAVX2 = cpu.AVX2

// rowLanesAVX2 adds to sums[q], for all sixteen lanes, lane q's
// residue terms over the first nc entries of each of the rows pack
// blocks (stride floats apart, row bases in bases), and then, unless
// vals is nil, over the lanes' own entries vals[k·16+q] under their
// own row bases own[q]: the sums rowSums4 and ownSums compute, bit for
// bit — probe_amd64.s gives the argument. cbT holds the lanes' toggled
// column bases interleaved per column, cbT[k·16+q]; b holds the lanes'
// toggled overall bases. narrow serves only lanes 0–3, for batches
// of at most four. pack and bases are not read when rows is 0.
//
//go:noescape
func rowLanesAVX2(pack *float64, stride, rows, nc int, bases, cbT, vals *float64, own, b, sums *[Lanes]float64, narrow bool)

// colLanesAVX2 adds to sums[q], for all sixteen lanes, lane q's
// column-insertion terms over the rows pack blocks: each block's first
// nc entries under the lane's toggled row base rbT[r·16+q] and the
// column bases cb, then the lane's inserted entry vals[r·16+q] under
// the inserted column's base own[q] — the sums colSums4 computes, bit
// for bit. narrow serves only lanes 0–3; cb is not read when nc is 0.
//
//go:noescape
func colLanesAVX2(pack *float64, stride, rows, nc int, cb, rbT, vals *float64, own, b, sums *[Lanes]float64, narrow bool)

// toggledBasesAVX2 sets all sixteen lanes of bases for each of the
// members cross-axis members from the lanes' entries vals and the
// member's sum, toggled count and unchanged base at cross[3k:3k+3]:
// the bases toggledBases computes, bit for bit (probe_amd64.s). members
// must be positive.
//
//go:noescape
func toggledBasesAVX2(vals, bases, cross *float64, members int, sub bool)
