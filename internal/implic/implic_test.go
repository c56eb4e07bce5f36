package implic

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

func TestForwardSimC17(t *testing.T) {
	c := bench.C17()
	st := NewState(c)
	st.Reset(logic.LevelsMask(4))
	// Level 0: 1=1 3=1 -> 10=0 ; 3=1 6=1 -> 11=0 ; 2=1 11=0 -> 16=1 ;
	// 11=0 7=1 -> 19=1 ; 10=0 16=1 -> 22=1 ; 16=1 19=1 -> 23=0.
	assign := map[string]logic.Value7{
		"1": logic.Stable1, "2": logic.Stable1, "3": logic.Stable1, "6": logic.Stable1, "7": logic.Stable1,
	}
	for name, v := range assign {
		st.AssignPI(c.NetByName(name), v, logic.BitMask(0))
	}
	want := map[string]logic.Value7{
		"10": logic.Stable0, "11": logic.Stable0, "16": logic.Stable1,
		"19": logic.Stable1, "22": logic.Stable1, "23": logic.Stable0,
	}
	// Sim is exact on the requirement cone only; a requirement on an unused
	// level puts every net read below into it.
	for name := range want {
		st.AddRequirement(c.NetByName(name), logic.Final0, logic.BitMask(3))
	}
	st.ForwardSim()
	for name, v := range want {
		if got := st.SimValue(c.NetByName(name)).Get(0); got != v {
			t.Errorf("sim %s = %v, want %v", name, got, v)
		}
	}
	// Unassigned levels stay X.
	if got := st.SimValue(c.NetByName("22")).Get(1); got != logic.X7 {
		t.Errorf("level 1 should be X, got %v", got)
	}
}

// TestForwardSimMatchesBooleanSim simulates random stable input vectors
// through random circuits and checks the seven-valued forward simulation
// against direct boolean evaluation.
func TestForwardSimMatchesBooleanSim(t *testing.T) {
	profiles := []bench.Profile{
		{Name: "rnd1", Inputs: 8, Outputs: 4, Gates: 60, Depth: 8, Seed: 11, InputFaninBias: 0.4, WideFaninFraction: 0.2, InverterFraction: 0.2},
		{Name: "rnd2", Inputs: 12, Outputs: 6, Gates: 120, Depth: 12, Seed: 12, InputFaninBias: 0.5, WideFaninFraction: 0.1, InverterFraction: 0.3},
	}
	rng := rand.New(rand.NewSource(99))
	for _, p := range profiles {
		c := bench.MustSynthesize(p)
		st := NewState(c)
		st.Reset(logic.LevelsMask(logic.WordWidth))
		// One random stable vector per bit level.
		vectors := make([]map[circuit.NetID]bool, logic.WordWidth)
		for lvl := 0; lvl < logic.WordWidth; lvl++ {
			vectors[lvl] = make(map[circuit.NetID]bool)
			for _, in := range c.Inputs() {
				bit := rng.Intn(2) == 1
				vectors[lvl][in] = bit
				v := logic.Stable0
				if bit {
					v = logic.Stable1
				}
				st.AssignPI(in, v, logic.BitMask(lvl))
			}
		}
		// Sim ignores requirements but is exact only on their fanin cone:
		// put every net read below into it.
		for _, id := range c.TopoOrder() {
			st.AddRequirement(id, logic.Final0, logic.BitMask(0))
		}
		st.ForwardSim()
		// Compare against scalar boolean evaluation per level.
		values := make(map[circuit.NetID]bool)
		for lvl := 0; lvl < logic.WordWidth; lvl++ {
			for _, id := range c.TopoOrder() {
				g := c.Gate(id)
				if g.Kind == logic.Input {
					values[id] = vectors[lvl][id]
					continue
				}
				in := make([]logic.Value3, len(g.Fanin))
				for i, f := range g.Fanin {
					in[i] = logic.Value3FromBool(values[f])
				}
				values[id] = logic.Eval3(g.Kind, in...) == logic.One3
			}
			for _, id := range c.TopoOrder() {
				got := st.SimValue(id).Get(lvl)
				want := logic.Stable0
				if values[id] {
					want = logic.Stable1
				}
				if got != want {
					t.Fatalf("%s: net %s level %d: sim %v, want %v", p.Name, c.NetName(id), lvl, got, want)
				}
			}
		}
	}
}

func TestImplyForwardConflict(t *testing.T) {
	c := bench.C17()
	st := NewState(c)
	st.Reset(logic.LevelsMask(2))
	// Level 0: require gate 10 (NAND of 1,3) to be 0 while its inputs force
	// it to 1: 1=0 makes 10=1, so requiring 10=0 must conflict.
	st.AssignPI(c.NetByName("1"), logic.Stable0, logic.BitMask(0))
	st.AddRequirement(c.NetByName("10"), logic.Final0, logic.BitMask(0))
	// Level 1: consistent assignment, no conflict.
	st.AssignPI(c.NetByName("1"), logic.Stable1, logic.BitMask(1))
	st.AssignPI(c.NetByName("3"), logic.Stable1, logic.BitMask(1))
	st.AddRequirement(c.NetByName("10"), logic.Final0, logic.BitMask(1))
	conf := st.Imply()
	if !conf.Bit(0) {
		t.Error("level 0 should conflict")
	}
	if conf.Bit(1) {
		t.Error("level 1 should not conflict")
	}
}

func TestImplyBackwardUniqueImplications(t *testing.T) {
	c := bench.C17()
	st := NewState(c)
	st.Reset(logic.LevelsMask(1))
	// Requiring output 22 (NAND of 10,16) to be 0 forces both fanins to 1,
	// so additionally requiring 10 = 0 is contradictory: 10 = 0 forces
	// 22 = 1.  The engine must detect the conflict.
	st.AddRequirement(c.NetByName("22"), logic.Final0, logic.BitMask(0))
	st.AddRequirement(c.NetByName("10"), logic.Final0, logic.BitMask(0))
	st.Imply()
	if !st.ConflictMask().Bit(0) {
		t.Error("contradictory requirements on 22 and 10 should conflict")
	}

	st.Reset(logic.LevelsMask(1))
	// NAND output required 1 with one input already 1: the backward rule
	// only fires when all other inputs are 1, so requiring 22=0 (both inputs
	// 1) and then 16=1 is consistent; inputs 2,11 are not forced beyond what
	// is necessary.
	st.AddRequirement(c.NetByName("22"), logic.Final0, logic.BitMask(0))
	st.Imply()
	if got := st.ImpliedValue(c.NetByName("16")).Get(0).Final(); got != logic.One3 {
		t.Errorf("16 should be implied to 1, got %v", got)
	}
	if got := st.ImpliedValue(c.NetByName("10")).Get(0).Final(); got != logic.One3 {
		t.Errorf("10 should be implied to 1, got %v", got)
	}
	// 10 = NAND(1,3) = 1 does not force its inputs individually.
	if got := st.ImpliedValue(c.NetByName("1")).Get(0); got != logic.X7 {
		t.Errorf("input 1 should stay unknown, got %v", got)
	}
	if st.ConflictMask() != 0 {
		t.Errorf("no conflict expected, got mask %v", st.ConflictMask())
	}
}

func TestImplyStableBackward(t *testing.T) {
	// Robust requirement: a stable 1 at an AND output implies stable 1 on
	// every input; a stable 0 with the other input known 1 implies a stable 0
	// on the remaining input.
	b := circuit.NewBuilder("and2")
	a := b.Input("a")
	bb := b.Input("b")
	z := b.Gate("z", logic.And, a, bb)
	b.Output(z)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(c)
	st.Reset(logic.LevelsMask(1))
	st.AddRequirement(z, logic.Stable1, logic.BitMask(0))
	st.Imply()
	if got := st.ImpliedValue(a).Get(0); got != logic.Stable1 {
		t.Errorf("input a should be implied Stable1, got %v", got)
	}
	if got := st.ImpliedValue(bb).Get(0); got != logic.Stable1 {
		t.Errorf("input b should be implied Stable1, got %v", got)
	}

	st.Reset(logic.LevelsMask(1))
	st.AddRequirement(z, logic.Stable0, logic.BitMask(0))
	st.AssignPI(a, logic.Stable1, logic.BitMask(0))
	st.Imply()
	if got := st.ImpliedValue(bb).Get(0); got != logic.Stable0 {
		t.Errorf("input b should be implied Stable0, got %v", got)
	}

	// A falling output with the other input stable 1 implies a falling input.
	st.Reset(logic.LevelsMask(1))
	st.AddRequirement(z, logic.Fall7, logic.BitMask(0))
	st.AssignPI(a, logic.Stable1, logic.BitMask(0))
	st.Imply()
	if got := st.ImpliedValue(bb).Get(0); got != logic.Fall7 {
		t.Errorf("input b should be implied falling, got %v", got)
	}

	// A rising output with one input stable implies the transition on the
	// other input.
	st.Reset(logic.LevelsMask(1))
	st.AddRequirement(z, logic.Rise7, logic.BitMask(0))
	st.AssignPI(a, logic.Stable1, logic.BitMask(0))
	st.Imply()
	if got := st.ImpliedValue(bb).Get(0); got != logic.Rise7 {
		t.Errorf("input b should be implied rising, got %v", got)
	}
}

func TestImplyOrNorXorBackward(t *testing.T) {
	b := circuit.NewBuilder("mix")
	a := b.Input("a")
	bb := b.Input("b")
	cc := b.Input("c")
	o := b.Gate("o", logic.Or, a, bb)
	n := b.Gate("n", logic.Nor, a, cc)
	x := b.Gate("x", logic.Xor, bb, cc)
	b.Output(o)
	b.Output(n)
	b.Output(x)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(c)

	// OR output 0 forces both inputs to 0.
	st.Reset(logic.LevelsMask(1))
	st.AddRequirement(o, logic.Final0, logic.BitMask(0))
	st.Imply()
	if st.ImpliedValue(a).Get(0).Final() != logic.Zero3 || st.ImpliedValue(bb).Get(0).Final() != logic.Zero3 {
		t.Error("OR output 0 should force both inputs to 0")
	}

	// NOR output 1 forces both inputs to 0 (and stability follows).
	st.Reset(logic.LevelsMask(1))
	st.AddRequirement(n, logic.Stable1, logic.BitMask(0))
	st.Imply()
	if st.ImpliedValue(a).Get(0) != logic.Stable0 || st.ImpliedValue(cc).Get(0) != logic.Stable0 {
		t.Errorf("NOR output stable 1 should force stable 0 inputs, got %v %v",
			st.ImpliedValue(a).Get(0), st.ImpliedValue(cc).Get(0))
	}

	// XOR output with one known input forces the other.
	st.Reset(logic.LevelsMask(1))
	st.AddRequirement(x, logic.Final1, logic.BitMask(0))
	st.AssignPI(bb, logic.Stable0, logic.BitMask(0))
	st.Imply()
	if got := st.ImpliedValue(cc).Get(0).Final(); got != logic.One3 {
		t.Errorf("XOR backward implication failed: c = %v, want 1", got)
	}
	st.Reset(logic.LevelsMask(1))
	st.AddRequirement(x, logic.Final0, logic.BitMask(0))
	st.AssignPI(bb, logic.Stable1, logic.BitMask(0))
	st.Imply()
	if got := st.ImpliedValue(cc).Get(0).Final(); got != logic.One3 {
		t.Errorf("XOR backward implication failed: c = %v, want 1", got)
	}
}

// TestImplyConflictImpliesUnsatisfiable is the soundness property of the
// implication engine: whenever Imply reports a conflict for a requirement
// set on a small circuit, exhaustive enumeration of all input vectors
// confirms that no assignment satisfies the requirements.  (Only the final
// values of the requirements are checked, which is exactly what nonrobust
// requirements express.)
func TestImplyConflictImpliesUnsatisfiable(t *testing.T) {
	p := bench.Profile{Name: "sound", Inputs: 6, Outputs: 3, Gates: 25, Depth: 6, Seed: 21,
		InputFaninBias: 0.4, WideFaninFraction: 0.2, InverterFraction: 0.2}
	c := bench.MustSynthesize(p)
	rng := rand.New(rand.NewSource(5))
	st := NewState(c)
	checked := 0
	for iter := 0; iter < 300; iter++ {
		st.Reset(logic.LevelsMask(1))
		// Random nonrobust requirements on a few nets.
		reqs := make(map[circuit.NetID]logic.Value3)
		numReq := 1 + rng.Intn(4)
		for i := 0; i < numReq; i++ {
			net := circuit.NetID(rng.Intn(c.NumNets()))
			v := logic.Zero3
			if rng.Intn(2) == 1 {
				v = logic.One3
			}
			reqs[net] = v // later requirements overwrite; fine for the test
		}
		for net, v := range reqs {
			st.AddRequirement(net, logic.Value7From3(v), logic.BitMask(0))
		}
		if !st.Imply().Bit(0) {
			continue // no conflict claimed, nothing to verify
		}
		checked++
		// Exhaustive check: some input vector must violate every requirement
		// set... more precisely, NO input vector may satisfy all of them.
		inputs := c.Inputs()
		values := make(map[circuit.NetID]bool)
		for vec := 0; vec < 1<<len(inputs); vec++ {
			for i, in := range inputs {
				values[in] = (vec>>i)&1 == 1
			}
			for _, id := range c.TopoOrder() {
				g := c.Gate(id)
				if g.Kind == logic.Input {
					continue
				}
				in := make([]logic.Value3, len(g.Fanin))
				for i, f := range g.Fanin {
					in[i] = logic.Value3FromBool(values[f])
				}
				values[id] = logic.Eval3(g.Kind, in...) == logic.One3
			}
			ok := true
			for net, v := range reqs {
				if logic.Value3FromBool(values[net]) != v {
					ok = false
					break
				}
			}
			if ok {
				t.Fatalf("Imply claimed a conflict but vector %06b satisfies all requirements %v", vec, reqs)
			}
		}
	}
	if checked == 0 {
		t.Log("no conflicting requirement sets were generated; soundness not exercised this run")
	}
}

func TestJustifiedMaskAndUnjustified(t *testing.T) {
	c := bench.C17()
	st := NewState(c)
	st.Reset(logic.LevelsMask(2))
	// Level 0 requirement: net 16 = 1.  Level 1 requirement: net 16 = 0.
	n16 := c.NetByName("16")
	st.AddRequirement(n16, logic.Final1, logic.BitMask(0))
	st.AddRequirement(n16, logic.Final0, logic.BitMask(1))
	st.Imply()
	st.ForwardSim()
	if st.JustifiedMask(st.Active()) != 0 {
		t.Error("nothing should be justified before any input assignment")
	}
	if unj := unjustifiedAt(st, 0); len(unj) != 1 || unj[0] != n16 {
		t.Errorf("unjustified nets at level 0 = %v, want [16]", unj)
	}
	// One scan reports both levels: 16's miss word covers levels 0 and 1.
	if nets, miss := st.UnjustifiedWord(); len(nets) != 1 || nets[0] != n16 || miss[0] != 0b11 {
		t.Errorf("UnjustifiedWord = %v %v, want [16] [0b11]", nets, miss)
	}
	// Setting input 2 = 0 makes 16 = NAND(2,11) = 1: level 0 justified.
	st.AssignPI(c.NetByName("2"), logic.Stable0, logic.BitMask(0))
	st.Imply()
	st.ForwardSim()
	if !st.JustifiedMask(st.Active()).Bit(0) {
		t.Error("level 0 should be justified after assigning 2=0")
	}
	if st.JustifiedMask(st.Active()).Bit(1) {
		t.Error("level 1 should not be justified")
	}
	// Level 1: 16=0 needs 2=1 and 11=1, 11=1 needs 3=0 or 6=0.
	st.AssignPI(c.NetByName("2"), logic.Stable1, logic.BitMask(1))
	st.AssignPI(c.NetByName("3"), logic.Stable0, logic.BitMask(1))
	st.Imply()
	st.ForwardSim()
	if !st.JustifiedMask(st.Active()).Bit(1) {
		t.Error("level 1 should be justified after assigning 2=1, 3=0")
	}
	if unj := unjustifiedAt(st, 1); len(unj) != 0 {
		t.Errorf("unjustified nets at level 1 = %v, want empty", unj)
	}
}

func TestSensitizedFaultRedundantByImplication(t *testing.T) {
	// In the RedundantExample circuit, g2 = AND(NOT a, g1) with g1 = AND(a,b):
	// any path through g2 requires both a=1 (to propagate through g1 or to
	// set the side input) and NOT a = 1, which the implication engine must
	// recognise as a conflict without any decisions.
	c := bench.RedundantExample()
	a := c.NetByName("a")
	g1 := c.NetByName("g1")
	g2 := c.NetByName("g2")
	z := c.NetByName("z")
	f := paths.Fault{Path: paths.Path{Nets: []circuit.NetID{a, g1, g2, z}}, Transition: paths.Rising}
	cond, err := sensitize.Sensitize(c, f, sensitize.Nonrobust)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(c)
	st.Reset(logic.LevelsMask(1))
	for _, asg := range cond.Assignments {
		st.AddRequirement(asg.Net, asg.Value, logic.BitMask(0))
	}
	if !st.Imply().Bit(0) {
		t.Error("the implication engine should prove this fault redundant")
	}
}

func TestStateReset(t *testing.T) {
	c := bench.C17()
	st := NewState(c)
	st.Reset(logic.LevelsMask(8))
	if st.Active() != logic.LevelsMask(8) {
		t.Error("active mask not stored")
	}
	st.AddRequirement(c.NetByName("10"), logic.Stable0, logic.BitMask(2))
	st.AddRequirement(c.NetByName("10"), logic.Stable1, logic.BitMask(2))
	if st.Imply() != logic.BitMask(2) || st.ConflictMask() != logic.BitMask(2) {
		t.Error("contradictory requirement did not conflict level 2")
	}
	st.AssignPI(c.NetByName("1"), logic.Stable1, logic.LevelsMask(logic.WordWidth))
	if got := st.PIValue(c.NetByName("1")); got.Get(7) != logic.Stable1 || got.Get(8) != logic.X7 {
		t.Error("PI assignment should be clipped to the active mask")
	}
	// Assigning a non-input net is ignored.
	st.AssignPI(c.NetByName("22"), logic.Stable1, logic.BitMask(0))
	if st.PIValue(c.NetByName("22")) != (logic.Word7{}) {
		t.Error("assigning a gate output as PI should be ignored")
	}
	st.Reset(logic.LevelsMask(1))
	if st.ConflictMask() != 0 || st.Requirement(c.NetByName("10")) != (logic.Word7{}) {
		t.Error("Reset should clear conflicts and requirements")
	}
	if st.Circuit() != c {
		t.Error("Circuit accessor broken")
	}
}

func BenchmarkImplyC880Class(b *testing.B) {
	p, _ := bench.ProfileByName("c880")
	c := bench.MustSynthesize(p)
	st := NewState(c)
	fs := paths.SampleFaults(c, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Reset(logic.LevelsMask(logic.WordWidth))
		for lvl, f := range fs {
			cond, err := sensitize.Sensitize(c, f, sensitize.Robust)
			if err != nil {
				b.Fatal(err)
			}
			for _, asg := range cond.Assignments {
				st.AddRequirement(asg.Net, asg.Value, logic.BitMask(lvl))
			}
		}
		st.Imply()
		st.ForwardSim()
	}
}
