//go:build !race

package implic

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sensitize"
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

// TestWindowSnapshotAllocatesNothing guards the APTPG start on
// BenchmarkAPTPGStart's state: opening a 64-fault window (Reset,
// requirements, launches, Imply, SaveClosure) and loading one of its faults
// (Reset, requirements, launch, LoadClosure) allocate nothing once the
// state's lists have grown.
func TestWindowSnapshotAllocatesNothing(t *testing.T) {
	c, err := bench.Get("c7552")
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(c)
	window := sampleWindow(t, c, sensitize.Robust, logic.WordWidth, 1)
	faults := liveFaults(window, openWindow(st, window, logic.WordWidth))
	all := logic.LevelsMask(logic.WordWidth)
	step := func(i int) {
		openWindow(st, window, logic.WordWidth)
		fs := faults[i%len(faults)]
		fs.startOneFault(st, all)
		st.LoadClosure(fs.level)
	}
	for i := 0; i < 2*len(faults); i++ {
		step(i) // grow the requirement, cone and pending lists
	}
	i := 0
	if n := testing.AllocsPerRun(64, func() {
		step(i)
		i++
	}); n != 0 {
		t.Errorf("opening a window and loading a fault allocates %v times", n)
	}
}

// TestNewStateBytes holds the size of one implication state: NewState's
// allocations, read from runtime.MemStats.TotalAlloc, may not exceed what
// they were before the window snapshot plane was added (663,552 B on c7552,
// 3,545,360 B on the s38584 stand-in), so the snapshot stays paid for by the
// one trail stamp per net and the per-input PI plane.
func TestNewStateBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget uint64
	}{
		{"c7552", 663_552},
		{"s38584", 3_545_360},
	} {
		c, err := bench.Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := NewState(c)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(st)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: NewState allocates %d B, %.1f B per net", tc.name, got, float64(got)/float64(c.NumNets()))
		if got > tc.budget {
			t.Errorf("%s: NewState allocates %d B, budget %d B", tc.name, got, tc.budget)
		}
	}
}
