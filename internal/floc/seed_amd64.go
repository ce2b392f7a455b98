//go:build !purego

package floc

// rangeRowsAVX2 writes to out, in ascending order, the rows r of the
// whole four-row blocks below nr whose values x_k = col_k[r] − sub[j_k]
// over the ncols ≥ 2 columns j_k = cols[k] stay within width:
// |x₁ − x₀| ≤ width, and then max − min of every longer prefix. These
// are the verdicts of the column-major loops of carveRowsColumns at
// slack 0 (sub the anchor row) and of selectRowsComplete's range
// filter (sub the column adjustments), bit for bit: seed_amd64.s gives
// the argument. mirror is the matrix's column-major mirror, column j
// at mirror[j·nr:]. It returns the number of rows written.
//
//go:noescape
func rangeRowsAVX2(mirror *float64, nr int, cols *int, ncols int, sub *float64, width float64, out *int) int

// carveSAVX2 writes to out, in ascending order, the rows r of the
// whole four-row blocks below nr whose offsets x_k = col_k[r] − sub[j_k]
// over the ncols columns j_k = cols[k] clump as clumps tests them: some
// need = ncols − slack of them, consecutive in sorted order, span at
// most width. slack is 1 to carveMaxSlack and below ncols, and no
// offset may be NaN. It returns the number of rows written.
//
//go:noescape
func carveSAVX2(mirror *float64, nr int, cols *int, ncols int, sub *float64, width float64, slack int, out *int) int

// columnSumsAVX2 adds to dst[j], for each of the nc columns, one term
// per row i = rows[k] of the row-major data (nc floats per row), in
// list order: the sums columnSums computes over a complete matrix, bit
// for bit. kind selects the term as columnSums does: the value v, then
// v − off[i], then |v − off[i] − mean[j]|. off is not read for
// colValues, mean only for colDeviations.
//
//go:noescape
func columnSumsAVX2(data *float64, nc int, rows *int, nrows int, off, mean, dst *float64, kind int)
