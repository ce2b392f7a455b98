//go:build !amd64 || purego

package cluster

// useAVX2 is false without the amd64 kernel: the portable four-lane
// kernel serves every batch.
const useAVX2 = false

// rowInsertionsAVX2 is never called when useAVX2 is false.
func rowInsertionsAVX2(pack *float64, stride, rows, nc int, bases, cbT *float64, b, sums *[RowInsertionLanes]float64, squared bool) {
	panic("cluster: AVX2 kernel not built")
}
