package backtrace

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/testability"
)

func TestBacktraceDirectInput(t *testing.T) {
	c := bench.C17()
	st := implic.NewState(c)
	st.Reset(logic.LevelsMask(1))
	cc := testability.Analyze(c)
	in2 := c.NetByName("2")
	st.ForwardSim()
	obj, ok := Backtrace(st, cc, in2, logic.Final1, 0)
	if !ok {
		t.Fatal("backtrace from an unassigned input should succeed")
	}
	if obj.Input != in2 || obj.Value != logic.One3 {
		t.Errorf("objective = %+v, want input 2 = 1", obj)
	}
	// Once the input is assigned, backtracing to it must fail.
	st.AssignPI(in2, logic.Stable0, logic.LevelsMask(1))
	st.ForwardSim()
	if _, ok := Backtrace(st, cc, in2, logic.Final1, 0); ok {
		t.Error("backtrace to an already assigned input should fail")
	}
}

func TestBacktraceThroughGates(t *testing.T) {
	c := bench.C17()
	st := implic.NewState(c)
	st.Reset(logic.LevelsMask(1))
	st.ForwardSim()
	cc := testability.Analyze(c)

	// Justify 16 = NAND(2,11) to 0: all inputs must be 1, so the objective
	// is one of the inputs driven towards 1 (through NAND 11 this means its
	// inputs go to 0).
	n16 := c.NetByName("16")
	obj, ok := Backtrace(st, cc, n16, logic.Final0, 0)
	if !ok {
		t.Fatal("backtrace should find an objective")
	}
	if !c.IsInput(obj.Input) {
		t.Fatalf("objective %s is not a primary input", c.NetName(obj.Input))
	}
	// The objective must be consistent: assigning it and simulating either
	// justifies something or at least assigns the chosen input.
	v := logic.Stable0
	if obj.Value == logic.One3 {
		v = logic.Stable1
	}
	st.AssignPI(obj.Input, v, logic.LevelsMask(1))
	st.ForwardSim()
	if st.SimGet(obj.Input, 0) == logic.X7 {
		t.Error("assigned objective input should no longer be X")
	}

	// Justify 22 = NAND(10,16) to 1: one input at 0 suffices; the backtrace
	// should reach an input through the easiest fanin.
	n22 := c.NetByName("22")
	obj2, ok := Backtrace(st, cc, n22, logic.Final1, 0)
	if !ok {
		t.Fatal("backtrace for 22=1 should find an objective")
	}
	if !c.IsInput(obj2.Input) {
		t.Fatalf("objective %s is not a primary input", c.NetName(obj2.Input))
	}
}

func TestBacktraceRepeatedJustification(t *testing.T) {
	// Repeatedly backtracing and assigning must eventually justify a
	// requirement on every gate of c17 (both values), never looping.
	c := bench.C17()
	cc := testability.Analyze(c)
	for _, g := range c.Gates() {
		if c.IsInput(g.ID) {
			continue
		}
		for _, want := range []logic.Value7{logic.Final0, logic.Final1} {
			st := implic.NewState(c)
			st.Reset(logic.LevelsMask(1))
			st.AddRequirement(g.ID, want, logic.LevelsMask(1))
			st.Imply()
			st.ForwardSim()
			for iter := 0; iter < 20; iter++ {
				if st.JustifiedMask(st.Active()).Bit(0) {
					break
				}
				unj := unjustifiedAt(st, 0)
				if len(unj) == 0 {
					break
				}
				progressed := false
				for _, net := range unj {
					obj, ok := Backtrace(st, cc, net, st.Requirement(net).Get(0), 0)
					if !ok {
						continue
					}
					v := logic.Stable0
					if obj.Value == logic.One3 {
						v = logic.Stable1
					}
					st.AssignPI(obj.Input, v, logic.LevelsMask(1))
					progressed = true
					break
				}
				if !progressed {
					break
				}
				st.Imply()
				st.ForwardSim()
			}
			if !st.JustifiedMask(st.Active()).Bit(0) {
				t.Errorf("could not justify %s = %v on c17", g.Name, want)
			}
		}
	}
}

func TestBacktraceXorParity(t *testing.T) {
	b := circuit.NewBuilder("xor3")
	a := b.Input("a")
	bb := b.Input("b")
	cc3 := b.Input("c")
	x := b.Gate("x", logic.Xor, a, bb, cc3)
	b.Output(x)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := implic.NewState(c)
	st.Reset(logic.LevelsMask(1))
	st.AssignPI(a, logic.Stable1, logic.LevelsMask(1))
	st.AssignPI(bb, logic.Stable0, logic.LevelsMask(1))
	st.ForwardSim()
	cc := testability.Analyze(c)
	// With a=1 and b=0 known, making x=0 requires c=1.
	obj, ok := Backtrace(st, cc, x, logic.Final0, 0)
	if !ok {
		t.Fatal("backtrace through XOR should succeed")
	}
	if obj.Input != cc3 || obj.Value != logic.One3 {
		t.Errorf("objective = %v=%v, want c=1", c.NetName(obj.Input), obj.Value)
	}
	// Making x=1 requires c=0.
	obj, ok = Backtrace(st, cc, x, logic.Final1, 0)
	if !ok || obj.Input != cc3 || obj.Value != logic.Zero3 {
		t.Errorf("objective = %+v, want c=0", obj)
	}
}

func TestBacktraceFailsWhenEverythingAssigned(t *testing.T) {
	c := bench.C17()
	st := implic.NewState(c)
	st.Reset(logic.LevelsMask(1))
	for _, in := range c.Inputs() {
		st.AssignPI(in, logic.Stable1, logic.LevelsMask(1))
	}
	st.ForwardSim()
	cc := testability.Analyze(c)
	// 22 simulates to 1 under the all-ones vector; asking to justify 22=0
	// cannot propose any new input.
	if _, ok := Backtrace(st, cc, c.NetByName("22"), logic.Final0, 0); ok {
		t.Error("backtrace with all inputs assigned should fail")
	}
}

// unjustifiedAt returns the nets st.UnjustifiedWord reports uncovered at the
// given bit level, in topological order (the scan returns insertion order).
func unjustifiedAt(st *implic.State, level int) []circuit.NetID {
	nets, miss := st.UnjustifiedWord()
	var out []circuit.NetID
	for i, n := range nets {
		if logic.Mask(miss[i]).Bit(level) {
			out = append(out, n)
		}
	}
	c := st.Circuit()
	slices.SortFunc(out, func(a, b circuit.NetID) int { return c.OrderPos(a) - c.OrderPos(b) })
	return out
}
