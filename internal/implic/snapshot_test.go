package implic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/sensitize"
)

// TestLoadClosureMatchesImply checks the window snapshot against the
// closure it stands in for.  For every conflict-free level of a window, on
// the equivalence circuits, in both modes and at widths 1, 7 and 64, the
// window's state loads that level's fault (LoadClosure) while a fresh state
// implies the same fault on every level.  The two must agree on every plane
// of every net, on the requirement cone and on the conflict mask; after
// ForwardSim on JustifiedMask and UnjustifiedWord too.  A framed decision
// must then close like the fresh state's (and like the full-sweep oracle's),
// and its Undo must return to the loaded state.
func TestLoadClosureMatchesImply(t *testing.T) {
	circuits := equivCircuits(t)
	for _, mode := range []sensitize.Mode{sensitize.Robust, sensitize.Nonrobust} {
		for _, width := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/w%d", mode, width), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(width)))
				active := logic.LevelsMask(width)
				loaded := 0
				for _, c := range circuits {
					st, fresh := NewState(c), NewState(c)
					window := sampleWindow(t, c, mode, width, int64(3+width))
					for _, fs := range liveFaults(window, openWindow(st, window, width)) {
						tag := fmt.Sprintf("%s/level %d", c.Name, fs.level)
						fs.startOneFault(st, active)
						st.LoadClosure(fs.level)
						fs.startOneFault(fresh, active)
						fresh.Imply()
						assertSameState(t, st, fresh, tag+"/load")
						st.ForwardSim()
						fresh.ForwardSim()
						assertSameState(t, st, fresh, tag+"/simulated")

						base := snapPlanes(st)
						in := c.Inputs()[rng.Intn(len(c.Inputs()))]
						v := equivValues[rng.Intn(len(equivValues))]
						for _, s := range []*State{st, fresh} {
							s.Assign()
							s.AssignPI(in, v, active)
							s.Imply()
							s.ForwardSim()
						}
						if got, want := st.ConflictMask(), fresh.ConflictMask(); got != want {
							t.Fatalf("%s/decision: conflict mask %v, implied start %v", tag, got, want)
						}
						assertMatchesOracle(t, st, tag+"/decision")
						st.Undo()
						fresh.Undo()
						if !snapPlanes(st).equal(base) {
							t.Fatalf("%s: Undo of the decision did not restore the loaded state", tag)
						}
						loaded++
					}
				}
				if loaded == 0 {
					t.Fatal("no window level was loaded")
				}
				t.Logf("%d window levels loaded", loaded)
			})
		}
	}
}

// assertSameState fails unless a and b hold the same planes on every net,
// mark the same requirement cone and read the same conflict mask,
// JustifiedMask and UnjustifiedWord.
func assertSameState(t *testing.T, a, b *State, tag string) {
	t.Helper()
	if !snapPlanes(a).equal(snapPlanes(b)) {
		c := a.Circuit()
		for n := 0; n < c.NumNets(); n++ {
			id := circuit.NetID(n)
			if a.ImpliedValue(id) != b.ImpliedValue(id) || a.SimValue(id) != b.SimValue(id) {
				t.Fatalf("%s: net %s: Val %x, Sim %x; implied start Val %x, Sim %x", tag, c.NetName(id),
					a.ImpliedValue(id), a.SimValue(id), b.ImpliedValue(id), b.SimValue(id))
			}
		}
		t.Fatalf("%s: planes or conflict mask differ from the implied start", tag)
	}
	if !slices.Equal(a.inCone, b.inCone) {
		t.Fatalf("%s: requirement cone differs from the implied start", tag)
	}
	if got, want := a.JustifiedMask(a.Active()), b.JustifiedMask(b.Active()); got != want {
		t.Fatalf("%s: JustifiedMask %v, implied start %v", tag, got, want)
	}
	if got, want := unjustifiedWord(a), unjustifiedWord(b); !slices.Equal(got, want) {
		t.Fatalf("%s: UnjustifiedWord %v, implied start %v", tag, got, want)
	}
}
