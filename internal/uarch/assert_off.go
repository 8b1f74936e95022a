//go:build !uarchassert

package uarch

// The default build compiles the lockstep checks out. Under -tags
// uarchassert (assert_on.go) each compares an LSQ answer, or the issue
// stage's selection, with a linear scan of the window and panics on a
// mismatch.

func (c *Core) lockstepUnissued(uint64, uint64, bool)      {}
func (c *Core) lockstepForward(uint64, uint64, fwdOutcome) {}
func (c *Core) lockstepViolation(uint64, uint64, bool)     {}
func (c *Core) lockstepIssue()                             {}
