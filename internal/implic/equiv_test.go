package implic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// The tests in this file validate the event-driven incremental engine
// against the full-sweep reference (NewFullSweepState), the oracle here:
// identical conflict masks, identical Sim planes, identical Val planes on
// every bit level whose closure is conflict-free (on conflicted levels the
// derived stability planes are order-dependent; see the package comment),
// and exact trail restores.  Every randomized test runs the width dimension
// {1, 64, 128}: a state covers one machine word at every width it is asked
// for, and the w128 cases check that a width-128 request, which the engine
// accepts, gets a correct 64-level state.

// equivValues are the assignable seven-valued constants used to drive the
// randomized tests (X is excluded: assigning X is a no-op).
var equivValues = []logic.Value7{
	logic.Stable0, logic.Stable1, logic.Rise7, logic.Fall7, logic.Final0, logic.Final1,
}

// equivWidths is the word-width dimension of the randomized tests.
var equivWidths = []int{1, 64, 128}

// randMask returns a random level mask bounded to the given word width.
func randMask(rng *rand.Rand, width int) logic.Mask {
	return logic.Mask(rng.Uint64()) & logic.LevelsMask(width)
}

// randPIWord returns a sparse random per-level assignment word.
func randPIWord(rng *rand.Rand, width int) logic.Word7 {
	var w logic.Word7
	for lvl := 0; lvl < min(width, logic.WordWidth); lvl += 1 + rng.Intn(7) {
		w.Set(lvl, equivValues[rng.Intn(len(equivValues))])
	}
	return w
}

// oracleFor builds a fresh full-sweep state holding the same requirements
// and input assignments as st.  The oracle recomputes everything from
// scratch, so the externally assigned planes are all it needs.
func oracleFor(st *State) *State {
	c := st.Circuit()
	o := NewFullSweepState(c)
	o.Reset(st.Active())
	for n := 0; n < c.NumNets(); n++ {
		id := circuit.NetID(n)
		req := st.Requirement(id)
		if req == (logic.Word7{}) {
			continue
		}
		for lvl := 0; lvl < logic.WordWidth; lvl++ {
			if v := req.Get(lvl); v != logic.X7 {
				o.AddRequirement(id, v, logic.BitMask(lvl))
			}
		}
	}
	for _, in := range c.Inputs() {
		o.AssignPIWord(in, st.PIValue(in))
	}
	return o
}

// reqCone returns the requirement cone of st, computed from scratch: the
// transitive fanin of every net carrying a requirement.  The incremental
// engine keeps Val and Sim exact on these nets only (see growCone).
func reqCone(st *State) []bool {
	c := st.Circuit()
	cone := make([]bool, c.NumNets())
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if !cone[id] && st.Requirement(id) == (logic.Word7{}) {
			continue
		}
		cone[id] = true
		for _, f := range c.Gate(id).Fanin {
			cone[f] = true
		}
	}
	return cone
}

// assertMatchesOracle implies and simulates a fresh oracle over st's
// current requirements and assignments and compares the results: the
// conflict masks, JustifiedMask and UnjustifiedWord on every level, and Val
// and Sim on every net of the requirement cone, which st must have marked
// exactly.  st must have called Imply and ForwardSim after its last
// assignment change.
func assertMatchesOracle(t *testing.T, st *State, tag string) {
	t.Helper()
	o := oracleFor(st)
	oConf := o.Imply()
	o.ForwardSim()
	conf := st.ConflictMask()
	if conf != oConf {
		t.Fatalf("%s: conflict mask %v, oracle %v", tag, conf, oConf)
	}
	c := st.Circuit()
	cone := reqCone(st)
	keep := ^conf
	for n := 0; n < c.NumNets(); n++ {
		id := circuit.NetID(n)
		if st.inCone[id] != cone[id] {
			t.Fatalf("%s: net %s marked in the cone = %v, in the requirement cone = %v", tag, c.NetName(id), st.inCone[id], cone[id])
		}
		if !cone[id] {
			continue
		}
		if got, want := st.ImpliedValue(id).SelectLevels(keep), o.ImpliedValue(id).SelectLevels(keep); got != want {
			t.Fatalf("%s: Val[%s] conflict-free levels differ:\n  incremental %x\n  oracle      %x\n  actv=%x\n  conf=%x",
				tag, c.NetName(id), got, want, st.Active(), conf)
		}
		if got, want := st.SimValue(id), o.SimValue(id); got != want {
			t.Fatalf("%s: Sim[%s] differs:\n  incremental %x\n  oracle      %x", tag, c.NetName(id), got, want)
		}
	}
	just := st.JustifiedMask(st.Active())
	if want := o.JustifiedMask(o.Active()); just != want {
		t.Fatalf("%s: JustifiedMask %v, oracle %v", tag, just, want)
	}
	// A caller passes the levels it still searches, and the scan may stop
	// early on them: any subset must read as the full scan restricted to it.
	mrng := rand.New(rand.NewSource(int64(conf ^ just)))
	for _, m := range []logic.Mask{0, st.Active() &^ just, randMask(mrng, logic.WordWidth), randMask(mrng, logic.WordWidth), randMask(mrng, logic.WordWidth)} {
		if got, want := st.JustifiedMask(m), just&m; got != want {
			t.Fatalf("%s: JustifiedMask(%x) = %x, want %x", tag, m, got, want)
		}
	}
	if got, want := unjustifiedWord(st), unjustifiedWord(o); !slices.Equal(got, want) {
		t.Fatalf("%s: UnjustifiedWord = %v, oracle %v", tag, got, want)
	}
}

// unjustifiedMiss is one net of an UnjustifiedWord scan with its miss word.
type unjustifiedMiss struct {
	net  circuit.NetID
	miss uint64
}

// unjustifiedWord returns the UnjustifiedWord scan in topological order: the
// scan returns insertion order, and the requirement lists of an incremental
// state and its oracle fill in different orders.
func unjustifiedWord(st *State) []unjustifiedMiss {
	nets, miss := st.UnjustifiedWord()
	out := make([]unjustifiedMiss, len(nets))
	for i, n := range nets {
		out[i] = unjustifiedMiss{n, miss[i]}
	}
	c := st.Circuit()
	slices.SortFunc(out, func(a, b unjustifiedMiss) int { return c.OrderPos(a.net) - c.OrderPos(b.net) })
	return out
}

// unjustifiedAt returns the nets UnjustifiedWord reports uncovered at the
// given bit level, in topological order.
func unjustifiedAt(st *State, level int) []circuit.NetID {
	var out []circuit.NetID
	for _, u := range unjustifiedWord(st) {
		if logic.Mask(u.miss).Bit(level) {
			out = append(out, u.net)
		}
	}
	return out
}

// planeSnap is every plane of every net of a state, plus its conflict mask.
type planeSnap struct {
	req, pi, val, sim []logic.Word7
	conflict          logic.Mask
}

func snapPlanes(st *State) planeSnap {
	var s planeSnap
	for n := 0; n < st.Circuit().NumNets(); n++ {
		id := circuit.NetID(n)
		s.req = append(s.req, st.Requirement(id))
		s.pi = append(s.pi, st.PIValue(id))
		s.val = append(s.val, st.ImpliedValue(id))
		s.sim = append(s.sim, st.SimValue(id))
	}
	s.conflict = st.ConflictMask()
	return s
}

func (a planeSnap) equal(b planeSnap) bool {
	return a.conflict == b.conflict && slices.Equal(a.req, b.req) && slices.Equal(a.pi, b.pi) &&
		slices.Equal(a.val, b.val) && slices.Equal(a.sim, b.sim)
}

// equivCircuits returns the circuits the randomized equivalence tests run
// over: the paper examples, random synthesized circuits and scaled
// ISCAS-85-class stand-ins.
func equivCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	cs := []*circuit.Circuit{bench.C17(), bench.PaperExample(), bench.RedundantExample()}
	for _, p := range []bench.Profile{
		{Name: "eq-rnd1", Inputs: 10, Outputs: 5, Gates: 80, Depth: 9, Seed: 31, InputFaninBias: 0.4, WideFaninFraction: 0.2, InverterFraction: 0.25},
		{Name: "eq-rnd2", Inputs: 14, Outputs: 7, Gates: 160, Depth: 14, Seed: 32, InputFaninBias: 0.5, WideFaninFraction: 0.15, InverterFraction: 0.35},
	} {
		cs = append(cs, bench.MustSynthesize(p))
	}
	for _, name := range []string{"c432", "c880"} {
		p, ok := bench.ProfileByName(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		cs = append(cs, bench.MustSynthesize(p.Scaled(0.5)))
	}
	return cs
}

// TestIncrementalImplyMatchesOracleRandomOps drives random interleavings of
// requirement merges, input assignments, implications, simulations and
// trail frames through the incremental engine, comparing against the
// full-sweep oracle after every closure.
func TestIncrementalImplyMatchesOracleRandomOps(t *testing.T) {
	for _, width := range equivWidths {
		width := width
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + width)))
			for _, c := range equivCircuits(t) {
				st := NewStateWidth(c, width)
				inputs := c.Inputs()
				for trial := 0; trial < 4; trial++ {
					active := randMask(rng, width)
					if active == 0 {
						active = logic.LevelsMask(width)
					}
					st.Reset(active)
					depth := 0
					for op := 0; op < 60; op++ {
						switch rng.Intn(10) {
						case 0, 1:
							net := circuit.NetID(rng.Intn(c.NumNets()))
							v := equivValues[rng.Intn(len(equivValues))]
							st.AddRequirement(net, v, randMask(rng, width))
						case 2, 3, 4:
							in := inputs[rng.Intn(len(inputs))]
							v := equivValues[rng.Intn(len(equivValues))]
							st.AssignPI(in, v, randMask(rng, width))
						case 5:
							st.AssignPIWord(inputs[rng.Intn(len(inputs))], randPIWord(rng, width))
						case 6:
							st.Assign()
							depth++
						case 7:
							if depth > 0 {
								st.Undo()
								depth--
							}
						default:
							st.Imply()
							st.ForwardSim()
							assertMatchesOracle(t, st, c.Name)
						}
					}
					st.Imply()
					st.ForwardSim()
					assertMatchesOracle(t, st, c.Name+"/final")
				}
			}
		})
	}
}

// TestTrailRestoresExactState checks the trail's core guarantee: Undo
// restores every plane — including closure and simulation values derived
// after the frame was opened, and including conflicted levels — to the
// bit-exact state at the matching Assign, at every word width.
func TestTrailRestoresExactState(t *testing.T) {
	for _, width := range equivWidths {
		width := width
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(77 + width)))
			for _, c := range equivCircuits(t) {
				st := NewStateWidth(c, width)
				inputs := c.Inputs()
				st.Reset(logic.LevelsMask(width))
				// Base requirements plus an implied base state.
				for i := 0; i < 8; i++ {
					st.AddRequirement(circuit.NetID(rng.Intn(c.NumNets())), equivValues[rng.Intn(len(equivValues))], randMask(rng, width))
				}
				st.Imply()
				st.ForwardSim()

				var stack []planeSnap
				for op := 0; op < 120; op++ {
					switch rng.Intn(5) {
					case 0, 1, 2:
						if len(stack) < 12 {
							stack = append(stack, snapPlanes(st))
							st.Assign()
						}
						st.AssignPI(inputs[rng.Intn(len(inputs))], equivValues[rng.Intn(len(equivValues))], randMask(rng, width))
						if rng.Intn(2) == 0 {
							st.AddRequirement(circuit.NetID(rng.Intn(c.NumNets())), equivValues[rng.Intn(len(equivValues))], randMask(rng, width))
						}
						st.Imply()
						if rng.Intn(2) == 0 {
							st.ForwardSim()
						}
					default:
						if len(stack) == 0 {
							continue
						}
						st.Undo()
						want := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						if got := snapPlanes(st); !got.equal(want) {
							t.Fatalf("%s: planes or conflict mask differ after Undo", c.Name)
						}
					}
				}
			}
		})
	}
}

// TestIncrementalSensitizationMatchesOracle replays the generator's own
// workload shape — sensitization requirements, a launch assignment, then a
// chain of framed input decisions that is finally unwound — and checks the
// incremental engine against the oracle at every step.
func TestIncrementalSensitizationMatchesOracle(t *testing.T) {
	for _, width := range []int{64, 128} {
		width := width
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(55 + width)))
			all := logic.LevelsMask(width)
			for _, name := range []string{"c432", "c880", "c1355"} {
				p, ok := bench.ProfileByName(name)
				if !ok {
					t.Fatalf("unknown profile %q", name)
				}
				c := bench.MustSynthesize(p.Scaled(0.5))
				st := NewStateWidth(c, width)
				inputs := c.Inputs()
				for _, mode := range []sensitize.Mode{sensitize.Robust, sensitize.Nonrobust} {
					for _, f := range paths.SampleFaults(c, 8, int64(17+len(name))) {
						cond, err := sensitize.Sensitize(c, f, mode)
						if err != nil {
							continue
						}
						st.Reset(all)
						for _, a := range cond.Assignments {
							st.AddRequirement(a.Net, a.Value, all)
						}
						st.AssignPI(f.Path.Input(), f.Transition.Value7(), all)
						st.Imply()
						st.ForwardSim()
						assertMatchesOracle(t, st, c.Name+"/"+mode.String()+"/setup")

						depth := 0
						for d := 0; d < 6; d++ {
							st.Assign()
							depth++
							st.AssignPI(inputs[rng.Intn(len(inputs))], equivValues[rng.Intn(len(equivValues))], all)
							st.Imply()
							st.ForwardSim()
							assertMatchesOracle(t, st, c.Name+"/"+mode.String()+"/decide")
						}
						for ; depth > 0; depth-- {
							st.Undo()
							st.Imply()
							st.ForwardSim()
							assertMatchesOracle(t, st, c.Name+"/"+mode.String()+"/undo")
						}
					}
				}
			}
		})
	}
}

// TestConeGrowthAcrossFrames pins the two frame hazards of the requirement
// cone.  In both, gate 10 = NAND(1, 3) of c17 is skipped by a closure while
// it lies outside the cone, so its Val and Sim stay X.  A requirement on
// 22 = NAND(10, 16) then pulls it into the cone inside a frame, where it is
// computed, and Undo rolls the computed values back to X:
//
//   - a: the requirement is added before Assign and its cone first grows
//     inside the frame.  After Undo the growth must be pending again, so the
//     next closure marks the cone and recomputes gate 10.
//   - b: the requirement is added inside the frame, undone, and added again
//     outside it.  Its cone must be marked anew, so gate 10 is recomputed
//     rather than left at the rolled-back X.
//
// An Undo that kept the cone marked would leave gate 10 at X in both.
func TestConeGrowthAcrossFrames(t *testing.T) {
	c := bench.C17()
	n10, n22 := c.NetByName("10"), c.NetByName("22")
	for _, width := range equivWidths {
		all := logic.LevelsMask(width)
		closure := func(st *State) {
			st.Imply()
			st.ForwardSim()
		}
		// skipped returns a state whose last closure skipped gate 10.
		skipped := func(t *testing.T) *State {
			st := NewStateWidth(c, width)
			st.Reset(all)
			st.AssignPI(c.NetByName("1"), logic.Stable1, all)
			st.AssignPI(c.NetByName("3"), logic.Stable1, all)
			closure(st)
			if st.ValGet(n10, 0) != logic.X7 || st.SimGet(n10, 0) != logic.X7 {
				t.Fatal("gate 10 lies outside the requirement cone but was evaluated")
			}
			return st
		}
		// computedInFrame runs the closure inside the open frame, checks
		// that it computed gate 10, then undoes the frame.
		computedInFrame := func(t *testing.T, st *State) {
			closure(st)
			if st.ValGet(n10, 0) != logic.Stable0 || st.SimGet(n10, 0) != logic.Stable0 {
				t.Fatal("gate 10 joined the cone inside the frame but was not computed")
			}
			st.Undo()
			if st.ValGet(n10, 0) != logic.X7 || st.SimGet(n10, 0) != logic.X7 {
				t.Fatal("Undo did not roll gate 10 back to X")
			}
		}
		recomputed := func(t *testing.T, st *State) {
			closure(st)
			if v, s := st.ValGet(n10, 0), st.SimGet(n10, 0); v != logic.Stable0 || s != logic.Stable0 {
				t.Fatalf("after Undo gate 10 has Val %v and Sim %v, want 0s for both", v, s)
			}
			assertMatchesOracle(t, st, c.Name)
		}
		t.Run(fmt.Sprintf("a/w%d", width), func(t *testing.T) {
			st := skipped(t)
			st.AddRequirement(n22, logic.Final1, all)
			st.Assign()
			computedInFrame(t, st)
			recomputed(t, st)
		})
		t.Run(fmt.Sprintf("b/w%d", width), func(t *testing.T) {
			st := skipped(t)
			st.Assign()
			st.AddRequirement(n22, logic.Final1, all)
			computedInFrame(t, st)
			st.AddRequirement(n22, logic.Final1, all)
			recomputed(t, st)
		})
	}
}

// TestUndoRestoresPendingLists pins Undo's exact restore of the pending
// lists, on level 0 of c17.  The requirements 10 = S0 and 22 = S1 imply
// input 1 = S1.  A frame assigns 1 = S1 and is undone before any closure,
// so input 1 was pending when it closed.  Input 2 = S0 is then assigned
// outside any frame, and a frame assigning 1 = S0 implies a conflict on
// level 0 and is undone.  Input 2's assignment was pending at that Assign,
// so it must be pending after the Undo too.  An Undo that re-pended only the
// nets whose Val it restored would lose it: with input 1 left pending by
// the first frame ahead of input 2, the closure conflicts the level before
// it reaches input 2, whose merge the frozen level then masks, so Val[2] is
// never written inside the frame and stays X once the level revives.
func TestUndoRestoresPendingLists(t *testing.T) {
	c := bench.C17()
	net := c.NetByName
	lvl0 := logic.BitMask(0)
	for _, width := range equivWidths {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			st := NewStateWidth(c, width)
			st.Reset(logic.LevelsMask(width))
			st.AddRequirement(net("10"), logic.Stable0, lvl0)
			st.AddRequirement(net("22"), logic.Stable1, lvl0)
			st.Imply()
			st.ForwardSim()

			st.Assign()
			st.AssignPI(net("1"), logic.Stable1, lvl0)
			st.Undo()

			st.AssignPI(net("2"), logic.Stable0, lvl0)
			st.Assign()
			st.AssignPI(net("1"), logic.Stable0, lvl0)
			if st.Imply() != lvl0 {
				t.Fatal("assigning 1 = S0 against the implied S1 did not conflict level 0")
			}
			st.Undo()

			st.Imply()
			st.ForwardSim()
			assertMatchesOracle(t, st, fmt.Sprintf("c17/w%d", width))
		})
	}
}
