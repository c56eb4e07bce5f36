package bench

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

func TestC17(t *testing.T) {
	c := C17()
	if c.NumGates() != 6 || len(c.Inputs()) != 5 || len(c.Outputs()) != 2 {
		t.Errorf("c17 has wrong shape: %s", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPaperExample(t *testing.T) {
	c := PaperExample()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// The nets named in Figures 1 and 2 must all exist.
	for _, name := range []string{"a", "b", "c", "d", "e", "p", "q", "r", "s", "t", "x", "y"} {
		if c.NetByName(name) == circuit.InvalidNet {
			t.Errorf("net %q missing from the paper example", name)
		}
	}
	// The paths used in the figures must exist structurally: each listed
	// pair must be connected by an edge.
	edges := [][2]string{{"a", "p"}, {"b", "p"}, {"p", "x"}, {"b", "q"}, {"q", "s"}, {"s", "x"}, {"c", "r"}, {"r", "s"}, {"s", "y"}}
	for _, e := range edges {
		from := c.NetByName(e[0])
		to := c.NetByName(e[1])
		found := false
		for _, f := range c.Gate(to).Fanin {
			if f == from {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("edge %s -> %s missing from the paper example", e[0], e[1])
		}
	}
	if len(c.Outputs()) != 2 {
		t.Errorf("paper example should have outputs x and y, got %d outputs", len(c.Outputs()))
	}
}

func TestParametricCircuits(t *testing.T) {
	cases := []struct {
		c         *circuit.Circuit
		inputs    int
		outputs   int
		minGates  int
		wantDepth int // 0 = don't check
	}{
		{Adder(8), 17, 9, 8 * 5, 0},
		{Adder(1), 3, 2, 5, 0},
		{ParityTree(8), 8, 1, 7, 3},
		{ParityTree(9), 9, 1, 8, 4},
		{MuxTree(3), 11, 1, 3 + 3*7, 0},
		{Comparator(8), 16, 1, 8 + 7, 0},
		{RedundantExample(), 3, 1, 4, 0},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", tc.c.Name, err)
			continue
		}
		if got := len(tc.c.Inputs()); got != tc.inputs {
			t.Errorf("%s: inputs = %d, want %d", tc.c.Name, got, tc.inputs)
		}
		if got := len(tc.c.Outputs()); got != tc.outputs {
			t.Errorf("%s: outputs = %d, want %d", tc.c.Name, got, tc.outputs)
		}
		if got := tc.c.NumGates(); got < tc.minGates {
			t.Errorf("%s: gates = %d, want at least %d", tc.c.Name, got, tc.minGates)
		}
		if tc.wantDepth != 0 && tc.c.MaxLevel() != tc.wantDepth {
			t.Errorf("%s: depth = %d, want %d", tc.c.Name, tc.c.MaxLevel(), tc.wantDepth)
		}
	}
}

func TestParametricClamping(t *testing.T) {
	// Degenerate sizes are clamped rather than rejected.
	for _, c := range []*circuit.Circuit{Adder(0), ParityTree(1), MuxTree(0), Comparator(0)} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", c.Name, err)
		}
	}
}

func TestSynthesizeSmallProfile(t *testing.T) {
	p := Profile{Name: "tiny", Inputs: 6, Outputs: 3, Gates: 30, Depth: 6, Seed: 1,
		InputFaninBias: 0.4, WideFaninFraction: 0.2, InverterFraction: 0.2}
	c, err := Synthesize(p)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(c.Inputs()) != 6 {
		t.Errorf("inputs = %d, want 6", len(c.Inputs()))
	}
	if c.NumGates() != 30 {
		t.Errorf("gates = %d, want 30", c.NumGates())
	}
	if len(c.Outputs()) < 3 {
		t.Errorf("outputs = %d, want at least 3", len(c.Outputs()))
	}
	// No dangling logic: every non-output gate has fanout.
	for _, g := range c.Gates() {
		if g.Kind == logic.Input {
			continue
		}
		if !g.IsOutput && len(g.Fanout) == 0 {
			t.Errorf("gate %s dangles", g.Name)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	p, ok := ProfileByName("c432")
	if !ok {
		t.Fatal("profile c432 missing")
	}
	a := MustSynthesize(p)
	b := MustSynthesize(p)
	if circuit.BenchString(a) != circuit.BenchString(b) {
		t.Error("synthesis is not deterministic for the same profile")
	}
	// A different seed must give a different circuit.
	p2 := p
	p2.Seed++
	c := MustSynthesize(p2)
	if circuit.BenchString(a) == circuit.BenchString(c) {
		t.Error("different seeds should give different circuits")
	}
}

func TestSynthesizeProfilesMatchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizing all profiles is slow in -short mode")
	}
	for _, p := range Profiles() {
		if p.Gates > 6000 {
			continue // keep the unit test fast; the large ones are exercised by benches
		}
		c, err := Synthesize(p)
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", p.Name, err)
		}
		if got := len(c.Inputs()); got != p.Inputs {
			t.Errorf("%s: inputs = %d, want %d", p.Name, got, p.Inputs)
		}
		if got := c.NumGates(); got != p.Gates {
			t.Errorf("%s: gates = %d, want %d", p.Name, got, p.Gates)
		}
		if got := c.MaxLevel(); got < p.Depth/2 {
			t.Errorf("%s: depth = %d, much shallower than target %d", p.Name, got, p.Depth)
		}
		if got := len(c.Outputs()); got < p.Outputs {
			t.Errorf("%s: outputs = %d, want at least %d", p.Name, got, p.Outputs)
		}
	}
}

func TestProfileScaled(t *testing.T) {
	p, _ := ProfileByName("c880")
	q := p.Scaled(0.1)
	if q.Gates >= p.Gates || q.Gates < 8 {
		t.Errorf("scaled gate count %d out of range", q.Gates)
	}
	if q.Inputs < 4 || q.Depth < 4 {
		t.Errorf("scaled profile too small: %+v", q)
	}
	c, err := Synthesize(q)
	if err != nil {
		t.Fatalf("Synthesize scaled: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGetRegistry(t *testing.T) {
	names := []string{"c17", "paper", "redundant", "adder4", "parity8", "mux2", "cmp4", "c432"}
	for _, n := range names {
		c, err := Get(n)
		if err != nil {
			t.Errorf("Get(%q): %v", n, err)
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Get(%q): Validate: %v", n, err)
		}
	}
	if _, err := Get("bogus999"); err == nil {
		t.Error("Get of unknown circuit should fail")
	}
	if _, err := Get("adder"); err == nil {
		t.Error("Get(\"adder\") without a size should fail")
	}
	if len(Names()) < 20 {
		t.Errorf("Names() lists only %d circuits", len(Names()))
	}
}

func TestSynthesizeRejectsBadProfiles(t *testing.T) {
	bad := []Profile{
		{Name: "noinputs", Inputs: 1, Outputs: 1, Gates: 10, Depth: 3},
		{Name: "nogates", Inputs: 4, Outputs: 1, Gates: 0, Depth: 3},
		{Name: "noout", Inputs: 4, Outputs: 0, Gates: 10, Depth: 3},
	}
	for _, p := range bad {
		if _, err := Synthesize(p); err == nil {
			t.Errorf("profile %q should be rejected", p.Name)
		}
	}
}

func TestProfileLookup(t *testing.T) {
	if _, ok := ProfileByName("C432"); !ok {
		t.Error("profile lookup should be case insensitive")
	}
	if _, ok := ProfileByName("does-not-exist"); ok {
		t.Error("unknown profile should not be found")
	}
	if len(ISCAS85Profiles()) != 10 {
		t.Errorf("ISCAS85Profiles = %d entries, want 10", len(ISCAS85Profiles()))
	}
	if len(ISCAS89Profiles()) != 16 {
		t.Errorf("ISCAS89Profiles = %d entries, want 16", len(ISCAS89Profiles()))
	}
}

// BenchmarkSynthesize times netlist synthesis, one build per circuit, on
// the c7552 and s38584 stand-ins; run it with -benchmem for its
// allocations.
func BenchmarkSynthesize(b *testing.B) {
	for _, name := range []string{"c7552", "s38584"} {
		p, ok := ProfileByName(name)
		if !ok {
			b.Fatalf("profile %s missing", name)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
