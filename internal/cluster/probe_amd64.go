//go:build !purego

package cluster

// useAVX2 reports whether the sixteen-lane AVX2 kernel serves the
// batched row insertions. It is decided once, at package init, from
// the CPU's feature flags; the purego build tag and every other GOARCH
// compile the portable four-lane kernel only (probe_generic.go).
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches: CPUID leaf 1 for OSXSAVE and
// AVX, XGETBV for the XMM and YMM state bits of XCR0, CPUID leaf 7 for
// AVX2.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// rowInsertionsAVX2 sets sums[q], for all sixteen lanes, to the sum of
// lane q's residue terms over the first nc entries of each of the rows
// pack blocks (stride floats apart, row bases in bases): the sums
// packSums4 computes, bit for bit — probe_amd64.s gives the argument.
// cbT holds the lanes' toggled column bases interleaved per column,
// cbT[k·16+q]; b holds the lanes' toggled overall bases. squared
// selects SquaredMean's r·r over ArithmeticMean's |r|.
//
//go:noescape
func rowInsertionsAVX2(pack *float64, stride, rows, nc int, bases, cbT *float64, b, sums *[RowInsertionLanes]float64, squared bool)
