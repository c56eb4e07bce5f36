package core

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// TestTrailFramesClosedAfterRun guards the runAPTPG unwind: every exit from
// the decision search (test found, redundancy proof, budget exhaustion)
// must close the trail frames it opened.  A leaked frame makes a later
// backtrack restore another fault's state, which surfaces as an equivalence
// failure far from the cause.
func TestTrailFramesClosedAfterRun(t *testing.T) {
	circuits := []*circuit.Circuit{bench.C17(), bench.PaperExample(), bench.Comparator(3)}
	for _, c := range circuits {
		// A budget of 1 forces the budget-exhaustion early return, the exit
		// path most likely to leave frames open.
		for _, budget := range []int{1, 8} {
			opts := DefaultOptions(sensitize.Nonrobust)
			opts.MaxBacktracks = budget
			// Skip the FPTPG group phase: on circuits this small it settles
			// every fault, and the APTPG decision search — the only code
			// that opens trail frames — would never run.
			opts.UseFPTPG = false
			g := New(c, opts)
			RunSharded(context.Background(), g, paths.EnumerateFaults(c, 0), 1)
			if d := g.st.Depth(); d != 0 {
				t.Errorf("%s (budget %d): %d trail frames still open after Run", c.Name, budget, d)
			}
		}
	}
}
