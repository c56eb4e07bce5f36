package sensitize

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
)

func pathByNames(t *testing.T, c *circuit.Circuit, names ...string) paths.Path {
	t.Helper()
	nets := make([]circuit.NetID, len(names))
	for i, n := range names {
		nets[i] = c.NetByName(n)
		if nets[i] == circuit.InvalidNet {
			t.Fatalf("net %q not found", n)
		}
	}
	p := paths.Path{Nets: nets}
	if err := p.Validate(c); err != nil {
		t.Fatalf("path %v invalid: %v", names, err)
	}
	return p
}

func findAssignment(cond Conditions, net circuit.NetID) (logic.Value7, bool) {
	var v logic.Value7
	found := false
	for _, a := range cond.Assignments {
		if a.Net == net {
			v = v.Merge(a.Value)
			found = true
		}
	}
	return v, found
}

// TestSideInputValues checks the classical sensitization conditions for all
// gate kinds, transitions and test classes.
func TestSideInputValues(t *testing.T) {
	cases := []struct {
		kind logic.Kind
		tr   paths.Transition
		mode Mode
		want logic.Value7
	}{
		// AND/NAND: controlling value 0.  A falling on-path transition moves
		// towards the controlling value, so robust tests need stable 1.
		{logic.And, paths.Falling, Robust, logic.Stable1},
		{logic.And, paths.Rising, Robust, logic.Final1},
		{logic.And, paths.Falling, Nonrobust, logic.Final1},
		{logic.And, paths.Rising, Nonrobust, logic.Final1},
		{logic.Nand, paths.Falling, Robust, logic.Stable1},
		{logic.Nand, paths.Rising, Robust, logic.Final1},
		// OR/NOR: controlling value 1.  A rising on-path transition moves
		// towards the controlling value.
		{logic.Or, paths.Rising, Robust, logic.Stable0},
		{logic.Or, paths.Falling, Robust, logic.Final0},
		{logic.Or, paths.Rising, Nonrobust, logic.Final0},
		{logic.Nor, paths.Rising, Robust, logic.Stable0},
		{logic.Nor, paths.Falling, Robust, logic.Final0},
		// XOR/XNOR: no controlling value, side inputs must be steady.
		{logic.Xor, paths.Rising, Robust, logic.Stable0},
		{logic.Xor, paths.Falling, Robust, logic.Stable0},
		{logic.Xor, paths.Rising, Nonrobust, logic.Final0},
		{logic.Xnor, paths.Falling, Nonrobust, logic.Final0},
	}
	for _, tc := range cases {
		got, err := SideInputValue(tc.kind, tc.tr, tc.mode)
		if err != nil {
			t.Errorf("SideInputValue(%v, %v, %v): %v", tc.kind, tc.tr, tc.mode, err)
			continue
		}
		if got != tc.want {
			t.Errorf("SideInputValue(%v, %v, %v) = %v, want %v", tc.kind, tc.tr, tc.mode, got, tc.want)
		}
	}
	if _, err := SideInputValue(logic.Input, paths.Rising, Robust); err == nil {
		t.Error("SideInputValue should reject the Input kind")
	}
}

func TestSensitizeC17Robust(t *testing.T) {
	c := bench.C17()
	// Path 3 - 11 - 16 - 22 (three NAND stages), rising at input 3.
	p := pathByNames(t, c, "3", "11", "16", "22")
	f := paths.Fault{Path: p, Transition: paths.Rising}
	cond, err := Sensitize(c, f, Robust)
	if err != nil {
		t.Fatal(err)
	}
	// On-path transitions: rising at 3, falling at 11, rising at 16,
	// falling at 22.
	onPath := map[string]logic.Value7{
		"3": logic.Rise7, "11": logic.Fall7, "16": logic.Rise7, "22": logic.Fall7,
	}
	for name, want := range onPath {
		got, ok := findAssignment(cond, c.NetByName(name))
		if !ok {
			t.Errorf("no assignment for on-path net %s", name)
			continue
		}
		if got != want {
			t.Errorf("on-path %s = %v, want %v", name, got, want)
		}
	}
	// Side inputs: gate 11 = NAND(3,6) with rising on-path input (towards the
	// non-controlling 1): side input 6 needs final 1 only.  Gate 16 =
	// NAND(2,11) with falling on-path input (towards controlling 0): side
	// input 2 needs stable 1.  Gate 22 = NAND(10,16) with rising on-path
	// input: side input 10 needs final 1.
	sides := map[string]logic.Value7{
		"6": logic.Final1, "2": logic.Stable1, "10": logic.Final1,
	}
	for name, want := range sides {
		got, ok := findAssignment(cond, c.NetByName(name))
		if !ok {
			t.Errorf("no assignment for side input %s", name)
			continue
		}
		if got != want {
			t.Errorf("side input %s = %v, want %v", name, got, want)
		}
	}
	if cond.SelfConflicting() {
		t.Error("this fault's conditions should not self-conflict")
	}
}

func TestSensitizeNonrobustWeakensRobust(t *testing.T) {
	c := bench.PaperExample()
	// Every fault: the nonrobust conditions must be implied by (weaker than
	// or equal to) the robust ones on every net.
	for _, f := range paths.EnumerateFaults(c, 0) {
		robust, err := Sensitize(c, f, Robust)
		if err != nil {
			t.Fatal(err)
		}
		nonrobust, err := Sensitize(c, f, Nonrobust)
		if err != nil {
			t.Fatal(err)
		}
		robustByNet := make(map[circuit.NetID]logic.Value7)
		for _, a := range robust.Assignments {
			robustByNet[a.Net] = robustByNet[a.Net].Merge(a.Value)
		}
		for _, a := range nonrobust.Assignments {
			r := robustByNet[a.Net]
			if !r.Covers(a.Value) {
				t.Errorf("fault %s: nonrobust requirement %v at %s is not covered by robust %v",
					f.Describe(c), a.Value, c.NetName(a.Net), r)
			}
		}
	}
}

func TestSensitizeOnPathMatchesTransitions(t *testing.T) {
	c := bench.PaperExample()
	for _, f := range paths.EnumerateFaults(c, 0) {
		cond, err := Sensitize(c, f, Robust)
		if err != nil {
			t.Fatal(err)
		}
		trans := f.Transitions(c)
		idx := 0
		for _, a := range cond.Assignments {
			if !a.OnPath {
				continue
			}
			if a.Net != f.Path.Nets[idx] {
				t.Fatalf("on-path assignments out of order for %s", f.Describe(c))
			}
			if a.Value != trans[idx].Value7() {
				t.Errorf("fault %s: on-path value at %s = %v, want %v",
					f.Describe(c), c.NetName(a.Net), a.Value, trans[idx].Value7())
			}
			idx++
		}
		if idx != f.Path.Len() {
			t.Errorf("fault %s: %d on-path assignments, want %d", f.Describe(c), idx, f.Path.Len())
		}
	}
}

func TestSensitizeRejectsInvalidPath(t *testing.T) {
	c := bench.C17()
	bad := paths.Fault{Path: paths.Path{Nets: []circuit.NetID{c.NetByName("10"), c.NetByName("22")}}}
	if _, err := Sensitize(c, bad, Robust); err == nil {
		t.Error("Sensitize should reject a path that does not start at a primary input")
	}
}

// TestSelfConflicting builds a fault whose side-input requirements contradict
// each other: in the paper example, the path b-q-s-x with a rising transition
// at b requires side input c of gate q to be non-controlling while the
// reconvergent gate r (also fed by c) imposes its own requirement; depending
// on the structure this may or may not conflict, so here we use a dedicated
// circuit where the conflict is certain: z = AND(a, NOT a).
func TestSelfConflicting(t *testing.T) {
	b := circuit.NewBuilder("selfconflict")
	a := b.Input("a")
	na := b.Gate("na", logic.Not, a)
	z := b.Gate("z", logic.And, a, na)
	b.Output(z)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Path a - z (direct fanin), rising at a.  The side input "na" must be
	// final 1, which together with the on-path requirement a=1 is
	// inconsistent, but the inconsistency is only visible through the
	// inverter, so SelfConflicting (which does no implication) must NOT
	// report it; the implication engine will.
	p := paths.Path{Nets: []circuit.NetID{a, z}}
	f := paths.Fault{Path: p, Transition: paths.Rising}
	cond, err := Sensitize(c, f, Nonrobust)
	if err != nil {
		t.Fatal(err)
	}
	if cond.SelfConflicting() {
		t.Error("conflict through the inverter should not be visible without implications")
	}
	// Path a - na - z falling at a: on-path requires na = 1 while z's side
	// input a (the same net as the path input) requires 1 as well; the path
	// input itself requires final 0 -> direct self conflict on net a.
	p2 := paths.Path{Nets: []circuit.NetID{a, na, z}}
	f2 := paths.Fault{Path: p2, Transition: paths.Falling}
	cond2, err := Sensitize(c, f2, Nonrobust)
	if err != nil {
		t.Fatal(err)
	}
	if !cond2.SelfConflicting() {
		t.Error("requirements 0 and 1 on the same net should self-conflict")
	}
}
