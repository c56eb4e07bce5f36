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
// against the retained full-sweep oracle (FullSweep = true): identical
// conflict masks, identical Sim planes, identical Val planes on every bit
// level whose closure is conflict-free (on conflicted levels the derived
// stability planes are order-dependent; see the package comment), and exact
// trail restores.  Every randomized test runs the width dimension
// {1, 64, 128, 512}, so the multi-word plane loops are exercised at K > 1.

// equivValues are the assignable seven-valued constants used to drive the
// randomized tests (X is excluded: assigning X is a no-op).
var equivValues = []logic.Value7{
	logic.Stable0, logic.Stable1, logic.Rise7, logic.Fall7, logic.Final0, logic.Final1,
}

// equivWidths is the word-width dimension of the randomized tests.
var equivWidths = []int{1, 64, 128, 512}

// randMask returns a random level mask bounded to the given word width.
func randMask(rng *rand.Rand, width int) logic.Mask {
	var m logic.Mask
	for w := 0; w < logic.KForWidth(width); w++ {
		m[w] = rng.Uint64()
	}
	return m.And(logic.LevelsMask(width))
}

// randPIWord returns a sparse random per-level assignment vector.
func randPIWord(rng *rand.Rand, width int) logic.Word7V {
	var w logic.Word7V
	for lvl := 0; lvl < width; lvl += 1 + rng.Intn(7) {
		w.Set(lvl, equivValues[rng.Intn(len(equivValues))])
	}
	return w
}

// oracleFor builds a fresh full-sweep state holding the same requirements
// and input assignments as st.  The oracle recomputes everything from
// scratch, so the externally assigned planes are all it needs.
func oracleFor(st *State) *State {
	c := st.Circuit()
	o := NewStateWidth(c, st.Width())
	o.FullSweep = true
	o.MaxSweeps = st.MaxSweeps
	o.Reset(st.Active())
	for n := 0; n < c.NumNets(); n++ {
		id := circuit.NetID(n)
		req := st.Requirement(id)
		if req.IsZero() {
			continue
		}
		for lvl := 0; lvl < st.Width(); lvl++ {
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
		if !cone[id] && st.Requirement(id).IsZero() {
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
	keep := conf.Not()
	for n := 0; n < c.NumNets(); n++ {
		id := circuit.NetID(n)
		if st.inCone[id] != cone[id] {
			t.Fatalf("%s: net %s marked in the cone = %v, in the requirement cone = %v", tag, c.NetName(id), st.inCone[id], cone[id])
		}
		if !cone[id] {
			continue
		}
		if got, want := st.ImpliedValue(id).SelectLevels(keep), o.ImpliedValue(id).SelectLevels(keep); got != want {
			t.Fatalf("%s: Val[%s] conflict-free levels differ:\n  incremental %v\n  oracle      %v\n  actv=%v\n  conf=%v",
				tag, c.NetName(id), got.StringN(st.Width()), want.StringN(st.Width()), st.Active(), conf)
		}
		if got, want := st.SimValue(id), o.SimValue(id); got != want {
			t.Fatalf("%s: Sim[%s] differs:\n  incremental %v\n  oracle      %v",
				tag, c.NetName(id), got.StringN(st.Width()), want.StringN(st.Width()))
		}
	}
	if got, want := st.JustifiedMask(), o.JustifiedMask(); got != want {
		t.Fatalf("%s: JustifiedMask %v, oracle %v", tag, got, want)
	}
	for w := 0; w < logic.KForWidth(st.Width()); w++ {
		got, want := unjustifiedWord(st, w), unjustifiedWord(o, w)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: UnjustifiedWord(%d) = %v, oracle %v", tag, w, got, want)
		}
	}
}

// unjustifiedMiss is one net of an UnjustifiedWord scan with its miss word.
type unjustifiedMiss struct {
	net  circuit.NetID
	miss uint64
}

// unjustifiedWord returns the UnjustifiedWord scan of plane word w in
// topological order: the scan returns bucket order, and the buckets of an
// incremental state and its oracle fill in different orders.
func unjustifiedWord(st *State, w int) []unjustifiedMiss {
	nets, miss := st.UnjustifiedWord(w)
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
	for _, u := range unjustifiedWord(st, level/logic.WordWidth) {
		if u.miss>>uint(level%logic.WordWidth)&1 != 0 {
			out = append(out, u.net)
		}
	}
	return out
}

// planeSnap is every plane of every net of a state, plus its conflict mask.
type planeSnap struct {
	req, pi, val, sim []logic.Word7V
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
//
// The sweep bound is set high enough for every closure to converge: that is
// the equivalence precondition.  When MaxSweeps truncates a closure early,
// both engines stop at sound but different partial closures (the full sweep
// restarts from scratch each call while the incremental engine carries the
// previous rounds forward), so bit-exactness only holds for converged
// closures — which is every closure in practice; see the package comment.
func TestIncrementalImplyMatchesOracleRandomOps(t *testing.T) {
	for _, width := range equivWidths {
		width := width
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + width)))
			for _, c := range equivCircuits(t) {
				st := NewStateWidth(c, width)
				st.MaxSweeps = 64
				inputs := c.Inputs()
				for trial := 0; trial < 4; trial++ {
					active := randMask(rng, width)
					if active.IsZero() {
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
	for _, width := range []int{64, 128, 512} {
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
				st.MaxSweeps = 64 // high enough to converge; see TestIncrementalImplyMatchesOracleRandomOps
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

// TestClearPIResync checks the ClearPI fallback: retracting assignments
// outside the trail forces a full recomputation whose result matches the
// oracle, and the engine continues incrementally afterwards.
func TestClearPIResync(t *testing.T) {
	for _, width := range equivWidths {
		width := width
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(91 + width)))
			c := bench.MustSynthesize(bench.Profile{
				Name: "eq-clr", Inputs: 10, Outputs: 5, Gates: 70, Depth: 8, Seed: 41,
				InputFaninBias: 0.4, WideFaninFraction: 0.2, InverterFraction: 0.3,
			})
			st := NewStateWidth(c, width)
			inputs := c.Inputs()
			st.Reset(logic.LevelsMask(width))
			for i := 0; i < 6; i++ {
				st.AddRequirement(circuit.NetID(rng.Intn(c.NumNets())), equivValues[rng.Intn(len(equivValues))], randMask(rng, width))
			}
			for round := 0; round < 10; round++ {
				for i := 0; i < 4; i++ {
					st.AssignPI(inputs[rng.Intn(len(inputs))], equivValues[rng.Intn(len(equivValues))], randMask(rng, width))
				}
				st.Imply()
				st.ForwardSim()
				assertMatchesOracle(t, st, "pre-clear")
				st.ClearPI(randMask(rng, width))
				st.Imply()
				st.ForwardSim()
				assertMatchesOracle(t, st, "post-clear")
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
