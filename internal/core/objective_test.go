package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/backtrace"
	"repro/internal/bench"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// perStepObjective is the reference selection at the current step: the
// level's unjustified requirements, scanned and sorted afresh by
// objectiveCost and topological position, then backtraced in that order.
func perStepObjective(g *Generator, lvl int) (backtrace.Objective, bool) {
	nets, miss := g.st.UnjustifiedWord()
	var keys []uint64
	for i, net := range nets {
		if logic.Mask(miss[i]).Bit(lvl) {
			keys = append(keys, uint64(g.objectiveCost(net, lvl))<<32|uint64(g.c.OrderPos(net)))
		}
	}
	slices.Sort(keys)
	for _, key := range keys {
		net := g.objectiveNet(key)
		if obj, ok := backtrace.Backtrace(g.st, g.tm, net, g.st.ReqGet(net, lvl), lvl); ok {
			return obj, true
		}
	}
	return backtrace.Objective{}, false
}

// setUpGroup loads an FPTPG group of faults sampled with the seed, one per
// level, implies and simulates its launch, and orders every level once.  It
// returns the levels holding a fault and each level's epoch order, or
// ok=false when no level needs a decision.
func setUpGroup(g *Generator, width int, seed int64) (levels logic.Mask, keys func(lvl int) []uint64, ok bool) {
	g.st.Reset(logic.LevelsMask(width))
	for i, f := range paths.SampleFaults(g.c, width, seed) {
		r := &rec{fault: f}
		if !g.sensitizeRec(r) {
			continue
		}
		bit := logic.BitMask(i)
		for _, a := range r.cond.Assignments {
			g.st.AddRequirement(a.Net, a.Value, bit)
		}
		g.st.AssignPI(f.Path.Input(), g.launchValue(f.Transition), bit)
		levels |= bit
	}
	alive := levels &^ g.st.Imply()
	g.st.ForwardSim()
	if alive&^g.st.JustifiedMask(alive) == 0 {
		return levels, nil, false
	}
	g.orderObjectives(alive)
	return levels, func(lvl int) []uint64 { return g.objKeys[lvl] }, true
}

// setUpAPTPG loads one fault sampled with the seed on every level, as
// runAPTPG does, and orders level 0 once for all levels.  ok is false when
// the fault needs no decision.
func setUpAPTPG(g *Generator, width int, seed int64) (levels logic.Mask, keys func(lvl int) []uint64, ok bool) {
	all := logic.LevelsMask(width)
	r := &rec{fault: paths.SampleFaults(g.c, 1, seed)[0]}
	if !g.sensitizeRec(r) {
		return all, nil, false
	}
	g.st.Reset(all)
	for _, a := range r.cond.Assignments {
		g.st.AddRequirement(a.Net, a.Value, all)
	}
	g.st.AssignPI(r.fault.Path.Input(), g.launchValue(r.fault.Transition), all)
	conflict := g.st.Imply()
	g.st.ForwardSim()
	if conflict == all || g.st.JustifiedMask(all) != 0 {
		return all, nil, false
	}
	g.orderObjectives(logic.BitMask(0))
	return all, func(int) []uint64 { return g.objKeys[0] }, true
}

// TestEpochOrderMatchesPerStepOrder pins the once-per-epoch objective order
// (see orderObjectives): after any sequence of the search's own moves,
// findObjective over the epoch order selects what the per-step selection
// would.  Both epochs are checked, an FPTPG group (one order per level) and
// an APTPG fault (level 0's order serving every level).  The moves are an
// assignment of an unassigned input on an alive level, Imply and ForwardSim,
// and in APTPG framed decisions undone at random, never below the base.
// After every ForwardSim every alive level is compared.  Each case runs
// epochs until 100 comparisons have selected an objective.  A generator of
// any width runs epochs of at most one machine word, so the w128 cases run
// 64-level epochs, as a width-128 generator does.
func TestEpochOrderMatchesPerStepOrder(t *testing.T) {
	for _, name := range []string{"c7552", "c880", "c1908"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []sensitize.Mode{sensitize.Robust, sensitize.Nonrobust} {
			for _, width := range []int{1, 64, 128} {
				for _, epoch := range []string{"fptpg", "aptpg"} {
					t.Run(fmt.Sprintf("%s/%s/w%d/%s", name, mode, width, epoch), func(t *testing.T) {
						opts := DefaultOptions(mode)
						opts.WordWidth = width
						g := New(c, opts)
						setUp := setUpGroup
						if epoch == "aptpg" {
							setUp = setUpAPTPG
						}
						rng := rand.New(rand.NewSource(int64(width) + int64(len(name))))
						selected := 0
						for seed := int64(1); selected < 100; seed++ {
							if seed > 500 {
								t.Fatalf("500 epochs selected only %d objectives", selected)
							}
							levels, keys, ok := setUp(g, min(width, logic.WordWidth), seed)
							if !ok {
								continue
							}
							selected += runEpoch(t, g, rng, levels, keys, epoch == "aptpg")
						}
					})
				}
			}
		}
	}
}

// runEpoch makes 40 random moves in the epoch set up on g.st, compares the
// selections after each, and returns how many of them found an objective.
func runEpoch(t *testing.T, g *Generator, rng *rand.Rand, levels logic.Mask, keys func(int) []uint64, frames bool) int {
	t.Helper()
	inputs := g.c.Inputs()
	selected := 0
	for step := 0; step < 40; step++ {
		alive := levels &^ g.st.ConflictMask()
		switch {
		case frames && g.st.Depth() > 0 && rng.Intn(4) == 0:
			g.st.Undo()
		case alive == 0:
			return selected
		default:
			if frames {
				g.st.Assign()
			}
			lvl := randomLevel(rng, alive)
			in, ok := perStepObjective(g, lvl)
			if !ok || rng.Intn(4) == 0 {
				in.Input = inputs[rng.Intn(len(inputs))]
			}
			if g.st.PIValue(in.Input).Get(lvl) == logic.X7 {
				v := logic.Zero3
				if rng.Intn(2) == 0 {
					v = logic.One3
				}
				g.st.AssignPI(in.Input, g.decisionValue(v), logic.BitMask(lvl))
			}
		}
		if rng.Intn(3) > 0 {
			g.st.Imply()
		}
		g.st.ForwardSim()
		alive = levels &^ g.st.ConflictMask()
		for lvl := 0; lvl < logic.WordWidth; lvl++ {
			if !alive.Bit(lvl) {
				continue
			}
			want, wantOK := perStepObjective(g, lvl)
			got, gotOK := g.findObjective(keys(lvl), lvl)
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d, level %d: epoch order selects %+v (%v), per-step order %+v (%v)",
					step, lvl, got, gotOK, want, wantOK)
			}
			if gotOK {
				selected++
			}
		}
	}
	return selected
}

// randomLevel returns a uniformly chosen level of the non-empty mask.
func randomLevel(rng *rand.Rand, m logic.Mask) int {
	var lvls []int
	for ; m != 0; m &= m - 1 {
		lvls = append(lvls, m.TrailingZeros())
	}
	return lvls[rng.Intn(len(lvls))]
}
