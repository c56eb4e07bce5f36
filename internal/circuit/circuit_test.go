package circuit

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/logic"
)

// buildC17 constructs the ISCAS85 c17 benchmark with the Builder API.
func buildC17(t testing.TB) *Circuit {
	t.Helper()
	b := NewBuilder("c17")
	g1 := b.Input("1")
	g2 := b.Input("2")
	g3 := b.Input("3")
	g6 := b.Input("6")
	g7 := b.Input("7")
	g10 := b.Gate("10", logic.Nand, g1, g3)
	g11 := b.Gate("11", logic.Nand, g3, g6)
	g16 := b.Gate("16", logic.Nand, g2, g11)
	g19 := b.Gate("19", logic.Nand, g11, g7)
	g22 := b.Gate("22", logic.Nand, g10, g16)
	g23 := b.Gate("23", logic.Nand, g16, g19)
	b.Output(g22)
	b.Output(g23)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("building c17: %v", err)
	}
	return c
}

func TestBuilderC17(t *testing.T) {
	c := buildC17(t)
	if got := c.NumGates(); got != 6 {
		t.Errorf("NumGates = %d, want 6", got)
	}
	if got := len(c.Inputs()); got != 5 {
		t.Errorf("inputs = %d, want 5", got)
	}
	if got := len(c.Outputs()); got != 2 {
		t.Errorf("outputs = %d, want 2", got)
	}
	if got := c.MaxLevel(); got != 3 {
		t.Errorf("MaxLevel = %d, want 3", got)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if id := c.NetByName("22"); id == InvalidNet || !c.IsOutput(id) {
		t.Error("net 22 should be a primary output")
	}
	if id := c.NetByName("nope"); id != InvalidNet {
		t.Error("unknown name should return InvalidNet")
	}
	// InputPos is the position in Inputs, -1 off the inputs.
	for _, g := range c.Gates() {
		want := slices.Index(c.Inputs(), g.ID)
		if got := c.InputPos(g.ID); got != want {
			t.Errorf("InputPos(%s) = %d, want %d", g.Name, got, want)
		}
	}
	// Topological order property: every fanin appears before its fanout.
	pos := make(map[NetID]int)
	for i, id := range c.TopoOrder() {
		pos[id] = i
	}
	for _, g := range c.Gates() {
		for _, f := range g.Fanin {
			if pos[f] >= pos[g.ID] {
				t.Errorf("net %s appears after its fanout %s in topological order", c.NetName(f), g.Name)
			}
		}
	}
	// Fanout lists are the inverse of fanin lists.
	count := 0
	for _, g := range c.Gates() {
		count += len(g.Fanout)
	}
	fanins := 0
	for _, g := range c.Gates() {
		fanins += len(g.Fanin)
	}
	if count != fanins {
		t.Errorf("total fanout entries %d != total fanin entries %d", count, fanins)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	a := b.Input("a")
	b.Input("a") // duplicate
	if b.Err() == nil {
		t.Fatal("duplicate input name should record an error")
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should fail after an error")
	}

	b = NewBuilder("bad2")
	a = b.Input("a")
	b.Gate("g", logic.And, a) // single-input AND
	if b.Err() == nil {
		t.Fatal("single-input AND should record an error")
	}

	b = NewBuilder("bad3")
	a = b.Input("a")
	b.Gate("n", logic.Not, a, a) // two-input NOT
	if b.Err() == nil {
		t.Fatal("two-input NOT should record an error")
	}

	b = NewBuilder("noout")
	a = b.Input("a")
	b.Gate("n", logic.Not, a)
	if _, err := b.Build(); err == nil {
		t.Fatal("circuit without outputs should not build")
	}

	b = NewBuilder("noin")
	z := b.Const("zero", false)
	b.Output(z)
	if _, err := b.Build(); err == nil {
		t.Fatal("circuit without inputs should not build")
	}

	b = NewBuilder("badref")
	a = b.Input("a")
	b.Gate("g", logic.And, a, NetID(99))
	if b.Err() == nil {
		t.Fatal("reference to unknown net should record an error")
	}

	b = NewBuilder("badinput")
	b.Gate("g", logic.Input)
	if b.Err() == nil {
		t.Fatal("declaring an input via Gate should record an error")
	}

	b = NewBuilder("badout")
	b.Input("a")
	b.Output(NetID(55))
	if b.Err() == nil {
		t.Fatal("marking an unknown net as output should record an error")
	}
}

// TestBuilderSpentAfterBuild: Build hands the builder's storage to the
// circuit, so a builder call after Build must leave that circuit as it was
// and record an error, which a second Build returns.
func TestBuilderSpentAfterBuild(t *testing.T) {
	b := NewBuilder("spent")
	a := b.Input("a")
	n := b.Gate("n", logic.Not, a)
	h := b.Gate("h", logic.Buf, n)
	z := b.Gate("z", logic.And, a, n)
	b.Output(z)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("first Build: %v", err)
	}
	before := BenchString(c)

	b.Output(h)
	if c.IsOutput(h) || len(c.Outputs()) != 1 {
		t.Errorf("Output after Build changed the built circuit: IsOutput(h) = %v, Outputs = %v", c.IsOutput(h), c.Outputs())
	}
	if b.Err() == nil || !strings.Contains(b.Err().Error(), "after Build") {
		t.Errorf("Output after Build recorded %v, want an error naming Build", b.Err())
	}
	if id := b.Gate("y", logic.Or, a, h); id != InvalidNet {
		t.Errorf("Gate after Build = %d, want InvalidNet", id)
	}
	if id := b.Input("i"); id != InvalidNet {
		t.Errorf("Input after Build = %d, want InvalidNet", id)
	}
	b.Grow(8)
	if _, err := b.Build(); err == nil {
		t.Error("second Build succeeded, want the recorded error")
	}
	if got := BenchString(c); got != before {
		t.Errorf("builder calls after Build changed the circuit:\n%s\nwant:\n%s", got, before)
	}
	if c.NetByName("y") != InvalidNet || c.NetByName("i") != InvalidNet || c.NumNets() != 4 {
		t.Errorf("builder calls after Build added nets: %d nets", c.NumNets())
	}

	// A Build that fails spends the builder too.
	b = NewBuilder("noout")
	b.Input("a")
	if _, err := b.Build(); err == nil {
		t.Fatal("circuit without outputs built")
	}
	b.Output(0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "after Build") {
		t.Errorf("Build after a failed Build = %v, want an error naming Build", err)
	}
}

func TestConesAndStats(t *testing.T) {
	c := buildC17(t)
	g22 := c.NetByName("22")
	cone := c.FaninCone(g22)
	wantNames := map[string]bool{"1": true, "2": true, "3": true, "6": true, "10": true, "11": true, "16": true, "22": true}
	if len(cone) != len(wantNames) {
		t.Fatalf("fanin cone of 22 has %d nets, want %d", len(cone), len(wantNames))
	}
	for _, id := range cone {
		if !wantNames[c.NetName(id)] {
			t.Errorf("unexpected net %s in fanin cone of 22", c.NetName(id))
		}
	}
	g11 := c.NetByName("11")
	fanout := c.FanoutCone(g11)
	wantOut := map[string]bool{"11": true, "16": true, "19": true, "22": true, "23": true}
	if len(fanout) != len(wantOut) {
		t.Fatalf("fanout cone of 11 has %d nets, want %d", len(fanout), len(wantOut))
	}
	st := c.Stats()
	if st.Gates != 6 || st.Inputs != 5 || st.Outputs != 2 || st.MaxLevel != 3 {
		t.Errorf("unexpected stats: %+v", st)
	}
	if st.KindCounts[logic.Nand] != 6 {
		t.Errorf("KindCounts[NAND] = %d, want 6", st.KindCounts[logic.Nand])
	}
	if st.MaxFanin != 2 || st.MaxFanout < 2 {
		t.Errorf("fanin/fanout stats wrong: %+v", st)
	}
	if !strings.Contains(c.String(), "c17") {
		t.Errorf("String() = %q", c.String())
	}
}

func TestCycleDetection(t *testing.T) {
	// A cycle cannot be expressed through the Builder (nets must exist before
	// use), so check the .bench path, which allows forward references.
	src := `
INPUT(a)
OUTPUT(x)
x = AND(a, y)
y = AND(a, x)
`
	if _, err := ParseBenchString("cyclic", src); err == nil {
		t.Fatal("cyclic circuit should not parse")
	}
}

const c17Bench = `
# c17 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func TestParseBenchC17(t *testing.T) {
	c, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	ref := buildC17(t)
	if c.NumGates() != ref.NumGates() || len(c.Inputs()) != len(ref.Inputs()) || c.MaxLevel() != ref.MaxLevel() {
		t.Errorf("parsed c17 differs from reference: %s vs %s", c, ref)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseBenchForwardReferences(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(m, n)
m = NOT(a)
n = OR(a, b)
`
	c, err := ParseBenchString("fwd", src)
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	if c.NumGates() != 3 {
		t.Errorf("NumGates = %d, want 3", c.NumGates())
	}
}

func TestParseBenchDFFExtraction(t *testing.T) {
	src := `
# tiny sequential circuit
INPUT(a)
OUTPUT(z)
q = DFF(d)
d = AND(a, q)
z = NOT(q)
`
	c, err := ParseBenchString("seq", src)
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	if c.NumDFF() != 1 {
		t.Errorf("NumDFF = %d, want 1", c.NumDFF())
	}
	if len(c.Inputs()) != 2 {
		t.Errorf("inputs = %d, want 2 (a and pseudo input q)", len(c.Inputs()))
	}
	if len(c.Outputs()) != 2 {
		t.Errorf("outputs = %d, want 2 (z and pseudo output d)", len(c.Outputs()))
	}
	q := c.NetByName("q")
	if q == InvalidNet || !c.Gate(q).PseudoInput {
		t.Error("q should be a pseudo primary input")
	}
	d := c.NetByName("d")
	if d == InvalidNet || !c.Gate(d).PseudoOutput {
		t.Error("d should be a pseudo primary output")
	}
}

func TestParseBenchSingleInputGates(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
OUTPUT(z)
y = AND(a)
z = NAND(a)
`
	c, err := ParseBenchString("unary", src)
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	if got := c.Gate(c.NetByName("y")).Kind; got != logic.Buf {
		t.Errorf("single-input AND should become BUF, got %v", got)
	}
	if got := c.Gate(c.NetByName("z")).Kind; got != logic.Not {
		t.Errorf("single-input NAND should become NOT, got %v", got)
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := map[string]string{
		"double driver": "INPUT(a)\nOUTPUT(x)\nx = NOT(a)\nx = BUFF(a)\n",
		"missing paren": "INPUT a\nOUTPUT(x)\nx = NOT(a)\n",
		"bad gate":      "INPUT(a)\nOUTPUT(x)\nx = FROB(a)\n",
		"undriven":      "INPUT(a)\nOUTPUT(x)\nx = AND(a, ghost)\n",
		"bad output":    "INPUT(a)\nOUTPUT(ghost)\nx = NOT(a)\n",
		"no equals":     "INPUT(a)\nOUTPUT(x)\nx NOT(a)\n",
		"bad dff":       "INPUT(a)\nOUTPUT(x)\nq = DFF(a, a)\nx = NOT(q)\n",
	}
	for label, src := range cases {
		if _, err := ParseBenchString(label, src); err == nil {
			t.Errorf("%s: expected a parse error", label)
		}
	}
}

func TestWriteBenchRoundTrip(t *testing.T) {
	orig, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	text := BenchString(orig)
	again, err := ParseBenchString("c17", text)
	if err != nil {
		t.Fatalf("re-parsing written bench: %v\n%s", err, text)
	}
	if again.NumGates() != orig.NumGates() ||
		len(again.Inputs()) != len(orig.Inputs()) ||
		len(again.Outputs()) != len(orig.Outputs()) ||
		again.MaxLevel() != orig.MaxLevel() {
		t.Errorf("round trip changed the circuit: %s vs %s", again, orig)
	}
	// Every original gate must exist with the same kind and fanin names.
	for _, g := range orig.Gates() {
		if g.Kind == logic.Input {
			continue
		}
		id := again.NetByName(g.Name)
		if id == InvalidNet {
			t.Fatalf("net %q lost in round trip", g.Name)
		}
		g2 := again.Gate(id)
		if g2.Kind != g.Kind || len(g2.Fanin) != len(g.Fanin) {
			t.Errorf("gate %q changed in round trip", g.Name)
		}
	}
}

func TestWriteBenchSequentialRoundTrip(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
q = DFF(d)
d = AND(a, q)
z = NOT(q)
`
	c, err := ParseBenchString("seq", src)
	if err != nil {
		t.Fatal(err)
	}
	text := BenchString(c)
	again, err := ParseBenchString("seq", text)
	if err != nil {
		t.Fatalf("re-parsing written bench: %v\n%s", err, text)
	}
	// The written form is already combinational: same net counts, no DFFs.
	if again.NumNets() != c.NumNets() {
		t.Errorf("round trip changed net count: %d vs %d", again.NumNets(), c.NumNets())
	}
	if again.NumDFF() != 0 {
		t.Errorf("written bench should be purely combinational")
	}
}
