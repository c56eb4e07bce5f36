package implic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// The tests in this file pin the freeze rule of the implication closure: a
// bit level stops deriving once it first conflicts (see mergeVal).  Freezing
// must be invisible to every other level, must hold the frozen level's Val
// window still, and must be undone exactly by the trail.

// levelVal returns the Val value of every net at one bit level.
func levelVal(st *State, level int) []logic.Value7 {
	out := make([]logic.Value7, st.Circuit().NumNets())
	for n := range out {
		out[n] = st.ValGet(circuit.NetID(n), level)
	}
	return out
}

// assertOtherLevelsMatch checks that st (all levels active, level j
// conflicted) and ref (level j inactive) agree on every level other than j:
// identical conflict bits and Sim planes, and identical Val planes on the
// levels that are conflict-free.  (A level that conflicts freezes at its
// first conflicting merge, and which merge of a levelized bucket lands first
// is order-dependent — the "Conflicted levels may differ" clause of the
// equivalence contract in docs/ARCHITECTURE.md — so its Val window is not
// compared.)  Val and Sim are exact on the requirement cone only, and st's
// cone also holds the fanin of requirements that exist on level j alone, so
// the planes are compared on the nets that lie in both states' cones.
func assertOtherLevelsMatch(t *testing.T, st, ref *State, j int, tag string) {
	t.Helper()
	others := ref.Active()
	if got, want := st.ConflictMask()&others, ref.ConflictMask(); got != want {
		t.Fatalf("%s: conflict mask on levels other than %d is %x, without level %d %x", tag, j, got, j, want)
	}
	live := others &^ ref.ConflictMask()
	c := st.Circuit()
	stCone, refCone := reqCone(st), reqCone(ref)
	for n := 0; n < c.NumNets(); n++ {
		id := circuit.NetID(n)
		if !stCone[id] || !refCone[id] {
			continue
		}
		if got, want := st.ImpliedValue(id).SelectLevels(live), ref.ImpliedValue(id).SelectLevels(live); got != want {
			t.Fatalf("%s: Val[%s] on live levels differs with level %d conflicted:\n  with    %x\n  without %x",
				tag, c.NetName(id), j, got, want)
		}
		if got, want := st.SimValue(id).SelectLevels(others), ref.SimValue(id); got != want {
			t.Fatalf("%s: Sim[%s] differs with level %d conflicted:\n  with    %x\n  without %x",
				tag, c.NetName(id), j, got, want)
		}
	}
}

// TestConflictedLevelIsIndependent is the level-independence property of the
// freeze rule, on randomized and ISCAS-85-class circuits, at width 64 and
// at width 128, which runs on the same one-word state.  Two states receive the same random requirements and framed
// decisions; in one of them a decision conflicts level j, the other runs
// with j removed from the active mask.  After every closure:
//
//   - every level other than j matches between the two states;
//   - level j's Val window is exactly what it was at its first conflict;
//
// and Undo past the conflicting frame restores level j (and every other
// plane) bit-exactly.
func TestConflictedLevelIsIndependent(t *testing.T) {
	for _, width := range []int{64, 128} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + width)))
			all := logic.LevelsMask(width)
			for _, c := range equivCircuits(t) {
				inputs := c.Inputs()
				st, ref := NewStateWidth(c, width), NewStateWidth(c, width)
				both := func(f func(s *State)) {
					f(st)
					f(ref)
				}
				randomReq := func() {
					net := circuit.NetID(rng.Intn(c.NumNets()))
					v, m := equivValues[rng.Intn(len(equivValues))], randMask(rng, width)
					both(func(s *State) { s.AddRequirement(net, v, m) })
				}
				randomPI := func() {
					in := inputs[rng.Intn(len(inputs))]
					v, m := equivValues[rng.Intn(len(equivValues))], randMask(rng, width)
					both(func(s *State) { s.AssignPI(in, v, m) })
				}
				closure := func() {
					both(func(s *State) {
						s.Imply()
						s.ForwardSim()
					})
				}
				for trial := 0; trial < 4; trial++ {
					// Pick j among the levels the base requirements leave
					// conflict-free, so the framed decision below is what
					// conflicts it.
					st.Reset(all)
					for i := 0; i < 6; i++ {
						st.AddRequirement(circuit.NetID(rng.Intn(c.NumNets())), equivValues[rng.Intn(len(equivValues))], randMask(rng, width))
					}
					st.Imply()
					st.ForwardSim()
					live := all &^ st.ConflictMask()
					if live == 0 {
						continue
					}
					j := rng.Intn(width)
					for !live.Bit(j) {
						j = rng.Intn(width)
					}
					ref.Reset(all &^ logic.BitMask(j))
					// Replay the base requirements on ref, without level j.
					for n := 0; n < c.NumNets(); n++ {
						id := circuit.NetID(n)
						req := st.Requirement(id)
						for lvl := 0; lvl < width; lvl++ {
							if v := req.Get(lvl); v != logic.X7 {
								ref.AddRequirement(id, v, logic.BitMask(lvl))
							}
						}
					}
					ref.Imply()
					ref.ForwardSim()
					base := snapPlanes(st)

					// The conflicting decision: contradictory stable values on
					// one net, at level j only (a no-op on ref).
					both(func(s *State) { s.Assign() })
					net := circuit.NetID(rng.Intn(c.NumNets()))
					both(func(s *State) {
						s.AddRequirement(net, logic.Stable0, logic.BitMask(j))
						s.AddRequirement(net, logic.Stable1, logic.BitMask(j))
					})
					closure()
					if !st.ConflictMask().Bit(j) {
						t.Fatalf("%s: contradictory requirement did not conflict level %d", c.Name, j)
					}
					frozen := levelVal(st, j)
					assertOtherLevelsMatch(t, st, ref, j, c.Name+"/conflict")

					// Further framed decisions, never undoing the conflicting
					// frame.
					depth := 0
					for op := 0; op < 40; op++ {
						switch rng.Intn(6) {
						case 0:
							randomReq()
						case 1, 2:
							randomPI()
						case 3:
							both(func(s *State) { s.Assign() })
							depth++
						case 4:
							if depth > 0 {
								both(func(s *State) { s.Undo() })
								depth--
							}
						default:
							closure()
							assertOtherLevelsMatch(t, st, ref, j, c.Name+"/decide")
							if got := levelVal(st, j); !slices.Equal(got, frozen) {
								t.Fatalf("%s: Val of conflicted level %d changed after its first conflict", c.Name, j)
							}
						}
					}
					for ; depth >= 0; depth-- {
						both(func(s *State) { s.Undo() })
					}
					if got := snapPlanes(st); !got.equal(base) {
						t.Fatalf("%s: Undo past the conflicting frame did not restore level %d exactly", c.Name, j)
					}
					closure()
					assertOtherLevelsMatch(t, st, ref, j, c.Name+"/undone")
				}
			}
		})
	}
}
