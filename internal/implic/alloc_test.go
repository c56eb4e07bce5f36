//go:build !race

package implic

import (
	"testing"

	"repro/internal/circuit"
)

// TestDecisionAllocatesNothing guards the hot path: one framed decision —
// Assign, AssignPI, Imply, ForwardSim, Undo — allocates nothing once the
// trail and queue capacities have grown, on the states of BenchmarkImply,
// BenchmarkImplyDead and BenchmarkImplyOneFault.  The race detector
// instruments allocations, so the test builds without it.
func TestDecisionAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		state func(testing.TB) (*State, []circuit.NetID)
	}{
		{"Imply", func(tb testing.TB) (*State, []circuit.NetID) { return benchImplyState(tb, false, 64) }},
		{"ImplyDead", func(tb testing.TB) (*State, []circuit.NetID) { return deadState(tb, 64) }},
		{"ImplyOneFault", oneFaultState},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, inputs := tc.state(t)
			for i := 0; i < 256; i++ {
				decisionStep(st, inputs, i, true) // grow the trail and queue capacities
			}
			i := 0
			if n := testing.AllocsPerRun(256, func() {
				decisionStep(st, inputs, i, true)
				i++
			}); n != 0 {
				t.Errorf("a framed decision allocates %v times", n)
			}
		})
	}
}
