//go:build !amd64 || purego

package floc

// rangeRowsAVX2 is never called without the amd64 kernels: cpu.AVX2 is
// false, so no scratch selects them.
func rangeRowsAVX2(mirror *float64, nr int, cols *int, ncols int, sub *float64, width float64, out *int) int {
	panic("floc: AVX2 kernel not built")
}

// carveSAVX2 is never called without the amd64 kernels.
func carveSAVX2(mirror *float64, nr int, cols *int, ncols int, sub *float64, width float64, slack int, out *int) int {
	panic("floc: AVX2 kernel not built")
}

// columnSumsAVX2 is never called without the amd64 kernels.
func columnSumsAVX2(data *float64, nc int, rows *int, nrows int, off, mean, dst *float64, kind int) {
	panic("floc: AVX2 kernel not built")
}
