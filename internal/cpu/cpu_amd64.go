//go:build !purego

package cpu

// AVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers across context switches.
var AVX2 = hasAVX2()

// hasAVX2 reads the AVX2 support: CPUID leaf 1 for OSXSAVE and AVX,
// XGETBV for the XMM and YMM state bits of XCR0, CPUID leaf 7 for
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
