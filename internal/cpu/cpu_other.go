//go:build !amd64 || purego

package cpu

// AVX2 is false without the amd64 kernels.
const AVX2 = false
