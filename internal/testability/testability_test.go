package testability

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// TestControllabilityC17 pins the hand-computed SCOAP controllability table
// of the c17 netlist (inputs 1,2,3,6,7; 10=NAND(1,3), 11=NAND(3,6),
// 16=NAND(2,11), 19=NAND(11,7), 22=NAND(10,16), 23=NAND(16,19)):
//
//	net   CC0  CC1         net   CC0  CC1
//	1..7    1    1          16     4    2
//	10      3    2          19     4    2
//	11      3    2          22     5    4
//	                        23     5    5
func TestControllabilityC17(t *testing.T) {
	c := bench.C17()
	m := Analyze(c)
	for _, in := range c.Inputs() {
		if m.CC0[in] != 1 || m.CC1[in] != 1 {
			t.Errorf("input %s controllability %d/%d, want 1/1",
				c.NetName(in), m.CC0[in], m.CC1[in])
		}
	}
	for _, tc := range []struct {
		net      string
		cc0, cc1 int
	}{
		{"10", 3, 2},
		{"11", 3, 2},
		{"16", 4, 2},
		{"19", 4, 2},
		{"22", 5, 4},
		{"23", 5, 5},
	} {
		n := c.NetByName(tc.net)
		if m.CC0[n] != tc.cc0 || m.CC1[n] != tc.cc1 {
			t.Errorf("net %s: CC0/CC1 = %d/%d, want %d/%d",
				tc.net, m.CC0[n], m.CC1[n], tc.cc0, tc.cc1)
		}
	}
	n10, n22 := c.NetByName("10"), c.NetByName("22")
	if m.CC0[n22] <= m.CC0[n10] {
		t.Errorf("CC0(22)=%d should exceed CC0(10)=%d (deeper gates are harder)",
			m.CC0[n22], m.CC0[n10])
	}
	if m.Cost(n10, logic.Zero3) != m.CC0[n10] || m.Cost(n10, logic.One3) != m.CC1[n10] {
		t.Error("Cost accessor inconsistent with the CC tables")
	}
}

// TestObservabilityC17 pins the hand-computed SCOAP observability table of
// c17.  Outputs 22 and 23 observe for free; a NAND side input costs its CC1:
//
//	CO(16) = CO(19) = CO(10) = 0+1+CC1(sibling=2)       = 3
//	CO(11) = 3+1+CC1(2 or 7)                            = 5  (both branches tie)
//	CO(1)  = CO(10)+1+CC1(3)                            = 5
//	CO(2)  = CO(16)+1+CC1(11)                           = 6
//	CO(3)  = min(via 10: 5, via 11: 7)                  = 5
//	CO(6)  = CO(11)+1+CC1(3)                            = 7
//	CO(7)  = CO(19)+1+CC1(11)                           = 6
func TestObservabilityC17(t *testing.T) {
	c := bench.C17()
	m := Analyze(c)
	for _, tc := range []struct {
		net string
		co  int
	}{
		{"22", 0}, {"23", 0},
		{"10", 3}, {"16", 3}, {"19", 3},
		{"11", 5},
		{"1", 5}, {"2", 6}, {"3", 5}, {"6", 7}, {"7", 6},
	} {
		n := c.NetByName(tc.net)
		if m.CO[n] != tc.co {
			t.Errorf("CO(%s) = %d, want %d", tc.net, m.CO[n], tc.co)
		}
	}
}

// TestMeasuresParityTree pins both sweeps on the 4-input XOR tree generator
// (x0_0=XOR(i0,i1), x0_1=XOR(i2,i3), x1_0=XOR(x0_0,x0_1)): the two-level
// parity DP gives every stage-0 gate CC0=CC1=3 and the root 7/7, and with
// the stable-0 convention an XOR side input costs its CC0, so
// CO(stage 0) = 0+1+CC0(sibling=3) = 4 and CO(input) = 4+1+CC0(sibling=1) = 6.
func TestMeasuresParityTree(t *testing.T) {
	c := bench.ParityTree(4)
	m := Analyze(c)
	for _, tc := range []struct {
		net          string
		cc0, cc1, co int
	}{
		{"x0_0", 3, 3, 4},
		{"x0_1", 3, 3, 4},
		{"x1_0", 7, 7, 0},
		{"i0", 1, 1, 6}, {"i1", 1, 1, 6}, {"i2", 1, 1, 6}, {"i3", 1, 1, 6},
	} {
		n := c.NetByName(tc.net)
		if m.CC0[n] != tc.cc0 || m.CC1[n] != tc.cc1 || m.CO[n] != tc.co {
			t.Errorf("net %s: CC0/CC1/CO = %d/%d/%d, want %d/%d/%d",
				tc.net, m.CC0[n], m.CC1[n], m.CO[n], tc.cc0, tc.cc1, tc.co)
		}
	}
}

// TestMeasuresComparator pins both sweeps on the 2-bit equality comparator
// generator (eq_i=XNOR(a_i,b_i), and2_0=AND(eq0,eq1)): XNOR controllability
// mirrors XOR at 3/3, the AND reduction gives CC1=3+3+1=7 and CC0=min+1=4,
// and observability costs CC1 through the AND (CO(eq)=0+1+3=4) then CC0
// through the XNOR (CO(input)=4+1+1=6).
func TestMeasuresComparator(t *testing.T) {
	c := bench.Comparator(2)
	m := Analyze(c)
	for _, tc := range []struct {
		net          string
		cc0, cc1, co int
	}{
		{"eq0", 3, 3, 4},
		{"eq1", 3, 3, 4},
		{"and2_0", 4, 7, 0},
		{"a0", 1, 1, 6}, {"b0", 1, 1, 6}, {"a1", 1, 1, 6}, {"b1", 1, 1, 6},
	} {
		n := c.NetByName(tc.net)
		if m.CC0[n] != tc.cc0 || m.CC1[n] != tc.cc1 || m.CO[n] != tc.co {
			t.Errorf("net %s: CC0/CC1/CO = %d/%d/%d, want %d/%d/%d",
				tc.net, m.CC0[n], m.CC1[n], m.CO[n], tc.cc0, tc.cc1, tc.co)
		}
	}
}

// TestControllabilityAllKinds covers every gate kind on a one-gate-deep
// circuit, including the constant pseudo-gates.
func TestControllabilityAllKinds(t *testing.T) {
	b := circuit.NewBuilder("kinds")
	a := b.Input("a")
	bb := b.Input("b")
	and := b.Gate("and", logic.And, a, bb)
	or := b.Gate("or", logic.Or, a, bb)
	xor := b.Gate("xor", logic.Xor, a, bb)
	xnor := b.Gate("xnor", logic.Xnor, a, bb)
	not := b.Gate("not", logic.Not, a)
	buf := b.Gate("buf", logic.Buf, bb)
	z0 := b.Const("z0", false)
	z1 := b.Const("z1", true)
	top := b.Gate("top", logic.Or, and, or, xor, xnor, not, buf, z0, z1)
	b.Output(top)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := Analyze(c)
	if m.CC1[and] != 3 || m.CC0[and] != 2 {
		t.Errorf("AND controllability %d/%d, want CC0=2 CC1=3", m.CC0[and], m.CC1[and])
	}
	if m.CC0[or] != 3 || m.CC1[or] != 2 {
		t.Errorf("OR controllability %d/%d, want CC0=3 CC1=2", m.CC0[or], m.CC1[or])
	}
	if m.CC0[xor] != 3 || m.CC1[xor] != 3 {
		t.Errorf("XOR controllability %d/%d, want 3/3", m.CC0[xor], m.CC1[xor])
	}
	if m.CC0[xnor] != 3 || m.CC1[xnor] != 3 {
		t.Errorf("XNOR controllability %d/%d, want 3/3", m.CC0[xnor], m.CC1[xnor])
	}
	if m.CC0[not] != 2 || m.CC1[not] != 2 {
		t.Errorf("NOT controllability %d/%d, want 2/2", m.CC0[not], m.CC1[not])
	}
	if m.CC0[buf] != 2 || m.CC1[buf] != 2 {
		t.Errorf("BUF controllability %d/%d, want 2/2", m.CC0[buf], m.CC1[buf])
	}
	if m.CC0[z0] != 1 || m.CC1[z0] != MaxMeasure {
		t.Errorf("CONST0 controllability %d/%d, want 1/max", m.CC0[z0], m.CC1[z0])
	}
	if m.CC1[z1] != 1 || m.CC0[z1] != MaxMeasure {
		t.Errorf("CONST1 controllability %d/%d, want max/1", m.CC0[z1], m.CC1[z1])
	}
}

// TestChainMonotonicity is the chain property: through a buffer (or inverter)
// chain of depth d, every measure grows by exactly 1 per stage — CC from the
// input side, CO from the output side.
func TestChainMonotonicity(t *testing.T) {
	for _, kind := range []logic.Kind{logic.Buf, logic.Not} {
		const depth = 12
		b := circuit.NewBuilder(fmt.Sprintf("chain-%v", kind))
		nets := make([]circuit.NetID, depth+1)
		nets[0] = b.Input("in")
		for i := 1; i <= depth; i++ {
			nets[i] = b.Gate(fmt.Sprintf("n%d", i), kind, nets[i-1])
		}
		b.Output(nets[depth])
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := Analyze(c)
		for i, n := range nets {
			// Stage i is i gates from the input, depth-i from the output.
			if m.CC0[n] != 1+i || m.CC1[n] != 1+i {
				t.Errorf("%v chain stage %d: CC0/CC1 = %d/%d, want %d/%d",
					kind, i, m.CC0[n], m.CC1[n], 1+i, 1+i)
			}
			if m.CO[n] != depth-i {
				t.Errorf("%v chain stage %d: CO = %d, want %d", kind, i, m.CO[n], depth-i)
			}
		}
	}
}

// treeCircuit builds a balanced binary tree of the kind with 2^depth leaf
// inputs and returns the circuit, the root and the first leaf.
func treeCircuit(t *testing.T, kind logic.Kind, depth int) (*circuit.Circuit, circuit.NetID, circuit.NetID) {
	t.Helper()
	b := circuit.NewBuilder(fmt.Sprintf("tree-%v-%d", kind, depth))
	level := make([]circuit.NetID, 1<<uint(depth))
	for i := range level {
		level[i] = b.Input(fmt.Sprintf("l%d", i))
	}
	leaf := level[0]
	stage := 0
	for len(level) > 1 {
		next := make([]circuit.NetID, 0, len(level)/2)
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, b.Gate(fmt.Sprintf("g%d_%d", stage, i/2), kind, level[i], level[i+1]))
		}
		level = next
		stage++
	}
	b.Output(level[0])
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, level[0], leaf
}

// TestTreeClosedForms checks the SCOAP closed forms on balanced binary
// AND/OR trees of depth d (2^d leaves):
//
//	AND: CC1(root) = 2^(d+1)-1   (all leaves at 1, one gate per level)
//	     CC0(root) = d+1         (one leaf at 0 up the cheapest branch)
//	OR is the dual, and for both: CO(leaf) = 2^(d+1)-2 (every sibling
//	subtree must be driven to its non-controlling value on the way out).
func TestTreeClosedForms(t *testing.T) {
	for _, kind := range []logic.Kind{logic.And, logic.Or} {
		for depth := 1; depth <= 4; depth++ {
			c, root, leaf := treeCircuit(t, kind, depth)
			m := Analyze(c)
			sum, cheap := 1<<uint(depth+1)-1, depth+1
			wantCC0, wantCC1 := cheap, sum
			if kind == logic.Or {
				wantCC0, wantCC1 = sum, cheap
			}
			if m.CC0[root] != wantCC0 || m.CC1[root] != wantCC1 {
				t.Errorf("%v tree depth %d: root CC0/CC1 = %d/%d, want %d/%d",
					kind, depth, m.CC0[root], m.CC1[root], wantCC0, wantCC1)
			}
			if wantCO := 1<<uint(depth+1) - 2; m.CO[leaf] != wantCO {
				t.Errorf("%v tree depth %d: leaf CO = %d, want %d", kind, depth, m.CO[leaf], wantCO)
			}
		}
	}
}

// TestUnobservableNet checks that a net with no structural path to an output
// keeps CO = MaxMeasure.
func TestUnobservableNet(t *testing.T) {
	b := circuit.NewBuilder("dangling")
	a := b.Input("a")
	bb := b.Input("b")
	dead := b.Gate("dead", logic.And, a, bb)
	_ = dead
	b.Output(b.Gate("z", logic.Or, a, bb))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := Analyze(c)
	if m.CO[dead] != MaxMeasure {
		t.Errorf("dangling gate CO = %d, want MaxMeasure", m.CO[dead])
	}
}

// TestForCachesPerCircuit checks the per-circuit memoization: every call on
// the same compiled circuit returns the identical analysis, and distinct
// circuits do not share one.
func TestForCachesPerCircuit(t *testing.T) {
	c1, c2 := bench.C17(), bench.C17()
	if For(c1) != For(c1) {
		t.Error("For returned two different analyses for one circuit")
	}
	if For(c1) == For(c2) {
		t.Error("For shared an analysis across distinct circuits")
	}
}

// c17Fault builds the path delay fault along the named nets of c17.
func c17Fault(c *circuit.Circuit, tr paths.Transition, names ...string) paths.Fault {
	nets := make([]circuit.NetID, len(names))
	for i, n := range names {
		nets[i] = c.NetByName(n)
	}
	return paths.Fault{Path: paths.Path{Nets: nets}, Transition: tr}
}

// TestFaultScore checks the hardness score on c17 paths: it starts from the
// path input's observability, adds every on-path side input's cost, is a
// deterministic pure function, and robust scores dominate nonrobust ones
// (side inputs facing a transition towards the controlling value count
// double under the stability requirement).
func TestFaultScore(t *testing.T) {
	c := bench.C17()
	m := For(c)

	// Path 3-10-22, rising launch: CO(3)=5; gate 10 side input 1 costs
	// CC1(1)=1; gate 22 side input 16 costs CC1(16)=2.  The rising launch
	// arrives at 10 falling (NAND), i.e. towards the controlling value of
	// 22's NAND, so robust mode doubles the 16 side: 5+1+4 = 10 vs 5+1+2 = 8.
	f := c17Fault(c, paths.Rising, "3", "10", "22")
	if got := m.FaultScore(c, f, sensitize.Nonrobust); got != 8 {
		t.Errorf("nonrobust score = %d, want 8", got)
	}
	if got := m.FaultScore(c, f, sensitize.Robust); got != 10 {
		t.Errorf("robust score = %d, want 10", got)
	}

	// Robust dominance and determinism over every fault of the circuit.
	for _, f := range paths.EnumerateFaults(c, 0) {
		nr := m.FaultScore(c, f, sensitize.Nonrobust)
		r := m.FaultScore(c, f, sensitize.Robust)
		if r < nr {
			t.Errorf("fault %s: robust score %d below nonrobust %d", f.Key(), r, nr)
		}
		if m.FaultScore(c, f, sensitize.Robust) != r {
			t.Errorf("fault %s: score not deterministic", f.Key())
		}
	}

	if got := m.FaultScore(c, paths.Fault{}, sensitize.Robust); got != 0 {
		t.Errorf("empty path score = %d, want 0", got)
	}
}
