//go:build !deltadebug

package floc

import "deltacluster/internal/cluster"

// debugInvariants is false in release builds: the assertion calls
// below compile to nothing. Build with -tags deltadebug to recompute
// residues from scratch after every applied action and panic on
// divergence.
const debugInvariants = false

// assertInvariants is a no-op without the deltadebug tag.
func (e *engine) assertInvariants(string) {}

// checkProbe is a no-op without the deltadebug tag.
func (e *engine) checkProbe(*cluster.Probe, int, float64, bool) {}
