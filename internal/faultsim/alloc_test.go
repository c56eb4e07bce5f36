//go:build !race

package faultsim

import "testing"

// TestBatchAllocatesNothing guards the simulation hot path: once the
// simulator's state has grown, one batch — Load and a Detects per fault —
// allocates nothing.  The race detector instruments allocations, so the
// test builds without it.
func TestBatchAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(16, c880Batch(t)); n != 0 {
		t.Errorf("a simulation batch allocates %v times", n)
	}
}
