//go:build !amd64 || purego

package cluster

// useAVX2 is false without the amd64 kernels: the portable four-lane
// kernels serve every batch.
const useAVX2 = false

// rowLanesAVX2 is never called when useAVX2 is false.
func rowLanesAVX2(pack *float64, stride, rows, nc int, bases, cbT, vals *float64, own, b, sums *[Lanes]float64, narrow bool) {
	panic("cluster: AVX2 kernel not built")
}

// colLanesAVX2 is never called when useAVX2 is false.
func colLanesAVX2(pack *float64, stride, rows, nc int, cb, rbT, vals *float64, own, b, sums *[Lanes]float64, narrow bool) {
	panic("cluster: AVX2 kernel not built")
}

// toggledBasesAVX2 is never called when useAVX2 is false.
func toggledBasesAVX2(vals, bases, cross *float64, members int, sub bool) {
	panic("cluster: AVX2 kernel not built")
}
