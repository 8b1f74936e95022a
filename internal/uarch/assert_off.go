//go:build !uarchassert

package uarch

// The default build compiles the memory-order lockstep checks out. Under
// -tags uarchassert (assert_on.go) each compares an LSQ answer with a
// linear scan of the window and panics on a mismatch.

func (c *Core) lockstepUnissued(_ uint64, got bool) bool   { return got }
func (c *Core) lockstepForward(uint64, uint64, fwdOutcome) {}
func (c *Core) lockstepViolation(uint64, uint64, bool)     {}
