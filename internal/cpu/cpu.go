// Package cpu reports the CPU features the assembly kernels of
// internal/cluster and internal/floc dispatch on. It is detected once,
// at package init; the purego build tag and every GOARCH without
// kernels report no feature, so the portable Go kernels serve every
// call there.
package cpu
