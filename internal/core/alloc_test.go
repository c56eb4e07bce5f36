//go:build !race

package core

import "testing"

// TestVerifyPatternAllocatesNothing guards the check every emitted test
// passes: verifyPattern allocates nothing.  The race detector instruments
// allocations, so the test builds without it.
func TestVerifyPatternAllocatesNothing(t *testing.T) {
	g, tested := verifySetup(t)
	if n := testing.AllocsPerRun(64, func() {
		if !g.verifyPattern(tested.Fault, tested.Test) {
			t.Fatal("the emitted pair does not verify")
		}
	}); n != 0 {
		t.Errorf("verifyPattern allocates %v times", n)
	}
}
