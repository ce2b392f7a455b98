//go:build !deltadebug

package floc

import (
	"deltacluster/internal/cluster"
	"deltacluster/internal/matrix"
)

// debugInvariants is false in release builds: the assertion calls
// below compile to nothing. Build with -tags deltadebug to recompute
// residues from scratch after every applied action and panic on
// divergence.
const debugInvariants = false

// assertInvariants is a no-op without the deltadebug tag.
func (e *engine) assertInvariants(string) {}

// checkProbe is a no-op without the deltadebug tag.
func (e *engine) checkProbe(*cluster.Probe, int, float64, bool) {}

// checkRowSelection is a no-op without the deltadebug tag.
func (*seedScratch) checkRowSelection(*matrix.Matrix, []int, float64, int, []int) {}

// checkCarve is a no-op without the deltadebug tag.
func (*seedScratch) checkCarve(*matrix.Matrix, []float64, []int, float64, int, []int) {}

// checkColumnSums is a no-op without the deltadebug tag.
func (*seedScratch) checkColumnSums(*matrix.Matrix, []int, int, []float64) {}
