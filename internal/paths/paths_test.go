package paths

import (
	"math/big"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
)

func TestCountPathsC17(t *testing.T) {
	c := bench.C17()
	// c17 has exactly 11 structural paths and therefore 22 path delay faults.
	if got := CountPaths(c); got.Cmp(big.NewInt(11)) != 0 {
		t.Errorf("CountPaths(c17) = %v, want 11", got)
	}
	if got := CountFaults(c); got.Cmp(big.NewInt(22)) != 0 {
		t.Errorf("CountFaults(c17) = %v, want 22", got)
	}
	if got := CountPathsFloat(c); got != 11 {
		t.Errorf("CountPathsFloat(c17) = %v, want 11", got)
	}
}

func TestEnumerateMatchesCount(t *testing.T) {
	circuits := []*circuit.Circuit{
		bench.C17(),
		bench.PaperExample(),
		bench.RedundantExample(),
		bench.Adder(4),
		bench.ParityTree(8),
		bench.MuxTree(3),
		bench.Comparator(4),
	}
	for _, c := range circuits {
		want := CountPaths(c)
		ps := Enumerate(c, 0)
		if big.NewInt(int64(len(ps))).Cmp(want) != 0 {
			t.Errorf("%s: enumerated %d paths, counted %v", c.Name, len(ps), want)
		}
		seen := make(map[string]bool, len(ps))
		for _, p := range ps {
			if err := p.Validate(c); err != nil {
				t.Errorf("%s: invalid path %s: %v", c.Name, p.Describe(c), err)
			}
			k := p.Key()
			if seen[k] {
				t.Errorf("%s: duplicate path %s", c.Name, p.Describe(c))
			}
			seen[k] = true
		}
	}
}

func TestEnumerateSyntheticMatchesCount(t *testing.T) {
	p := bench.Profile{Name: "tiny", Inputs: 8, Outputs: 4, Gates: 60, Depth: 8, Seed: 3,
		InputFaninBias: 0.4, WideFaninFraction: 0.2, InverterFraction: 0.2}
	c := bench.MustSynthesize(p)
	want := CountPaths(c)
	ps := Enumerate(c, 0)
	if big.NewInt(int64(len(ps))).Cmp(want) != 0 {
		t.Errorf("enumerated %d paths, counted %v", len(ps), want)
	}
}

func TestEnumerateLimit(t *testing.T) {
	c := bench.Adder(8)
	total := CountPaths(c).Int64()
	if total < 20 {
		t.Fatalf("adder8 unexpectedly small: %d paths", total)
	}
	ps := Enumerate(c, 10)
	if len(ps) != 10 {
		t.Errorf("Enumerate with limit 10 returned %d paths", len(ps))
	}
	fs := EnumerateFaults(c, 7)
	if len(fs) != 7 {
		t.Errorf("EnumerateFaults with limit 7 returned %d faults", len(fs))
	}
	for _, f := range fs {
		if err := f.Path.Validate(c); err != nil {
			t.Errorf("invalid fault path: %v", err)
		}
	}
}

func TestEnumeratorOptions(t *testing.T) {
	c := bench.C17()
	in3 := c.NetByName("3")
	e := NewEnumerator(c, EnumOptions{FromInputs: []circuit.NetID{in3}})
	count := 0
	for {
		p, ok := e.Next()
		if !ok {
			break
		}
		if p.Input() != in3 {
			t.Errorf("path %s does not start at input 3", p.Describe(c))
		}
		count++
	}
	// Input 3 reaches gate 10 (1 path) and gate 11 (3 paths).
	if count != 4 {
		t.Errorf("input 3 has %d paths, want 4", count)
	}

	e = NewEnumerator(c, EnumOptions{MinLen: 4})
	for {
		p, ok := e.Next()
		if !ok {
			break
		}
		if p.Len() < 4 {
			t.Errorf("MinLen violated: %s", p.Describe(c))
		}
	}
	e = NewEnumerator(c, EnumOptions{MaxLen: 3})
	for {
		p, ok := e.Next()
		if !ok {
			break
		}
		if p.Len() > 3 {
			t.Errorf("MaxLen violated: %s", p.Describe(c))
		}
	}
	// Exhausted enumerators stay exhausted.
	if _, ok := e.Next(); ok {
		t.Error("exhausted enumerator returned another path")
	}
}

func TestPathsThroughConsistency(t *testing.T) {
	for _, c := range []*circuit.Circuit{bench.C17(), bench.Adder(6), bench.MuxTree(3)} {
		through := PathsThrough(c)
		total := CountPaths(c)
		// The paths through all primary inputs sum to the total path count.
		sum := new(big.Int)
		for _, in := range c.Inputs() {
			sum.Add(sum, through[in])
		}
		if sum.Cmp(total) != 0 {
			t.Errorf("%s: paths through inputs sum to %v, want %v", c.Name, sum, total)
		}
		// Same for primary outputs that do not feed further logic.
		sum.SetInt64(0)
		allTerminal := true
		for _, out := range c.Outputs() {
			if len(c.Gate(out).Fanout) > 0 {
				allTerminal = false
			}
			sum.Add(sum, through[out])
		}
		if allTerminal && sum.Cmp(total) != 0 {
			t.Errorf("%s: paths through outputs sum to %v, want %v", c.Name, sum, total)
		}
	}
}

func TestFromToCountsAgree(t *testing.T) {
	c := bench.PaperExample()
	from := PathsFromInputs(c)
	to := PathsToOutputs(c)
	// Total paths computed from either direction agree.
	viaInputs := new(big.Int)
	for _, in := range c.Inputs() {
		viaInputs.Add(viaInputs, to[in])
	}
	viaOutputs := new(big.Int)
	for _, out := range c.Outputs() {
		viaOutputs.Add(viaOutputs, from[out])
	}
	if viaInputs.Cmp(viaOutputs) != 0 {
		t.Errorf("path counts disagree: %v from inputs, %v from outputs", viaInputs, viaOutputs)
	}
}

func TestPathHelpers(t *testing.T) {
	c := bench.PaperExample()
	b := c.NetByName("b")
	p := c.NetByName("p")
	x := c.NetByName("x")
	path := Path{Nets: []circuit.NetID{b, p, x}}
	if err := path.Validate(c); err != nil {
		t.Fatalf("path b-p-x should be valid: %v", err)
	}
	if path.Input() != b || path.Output() != x || path.Len() != 3 {
		t.Error("path accessors wrong")
	}
	if path.Describe(c) != "b - p - x" {
		t.Errorf("Describe = %q", path.Describe(c))
	}
	clone := path.Clone()
	clone.Nets[0] = x
	if path.Nets[0] != b {
		t.Error("Clone should not share storage")
	}
	// Invalid paths are rejected.
	bad := Path{Nets: []circuit.NetID{p, x}}
	if err := bad.Validate(c); err == nil {
		t.Error("path starting at a gate should be invalid")
	}
	bad = Path{Nets: []circuit.NetID{b, x}}
	if err := bad.Validate(c); err == nil {
		t.Error("path with a missing edge should be invalid")
	}
	bad = Path{Nets: []circuit.NetID{b, p}}
	if err := bad.Validate(c); err == nil {
		t.Error("path ending at a gate should be invalid")
	}
	if err := (Path{}).Validate(c); err == nil {
		t.Error("empty path should be invalid")
	}
}

func TestFaultTransitions(t *testing.T) {
	c := bench.PaperExample()
	// Path b - q - s - x: q and s are NAND (inverting), x is OR.
	path := Path{Nets: []circuit.NetID{c.NetByName("b"), c.NetByName("q"), c.NetByName("s"), c.NetByName("x")}}
	if err := path.Validate(c); err != nil {
		t.Fatal(err)
	}
	f := Fault{Path: path, Transition: Rising}
	trans := f.Transitions(c)
	want := []Transition{Rising, Falling, Rising, Rising}
	for i := range want {
		if trans[i] != want[i] {
			t.Errorf("transition at %s = %v, want %v", c.NetName(path.Nets[i]), trans[i], want[i])
		}
	}
	f2 := Fault{Path: path, Transition: Falling}
	trans2 := f2.Transitions(c)
	for i := range trans {
		if trans2[i] != trans[i].Invert() {
			t.Error("falling fault transitions should be the complement of the rising ones")
		}
	}
	if f.Key() == f2.Key() {
		t.Error("rising and falling faults must have distinct keys")
	}
	if Rising.Value7() != logic.Rise7 || Falling.Value7() != logic.Fall7 {
		t.Error("Transition.Value7 mapping wrong")
	}
	if Rising.FinalValue3() != logic.One3 || Falling.FinalValue3() != logic.Zero3 {
		t.Error("Transition.FinalValue3 mapping wrong")
	}
	if Rising.String() != "rising" || Falling.String() != "falling" {
		t.Error("Transition.String wrong")
	}
}

func TestFaultsExpansion(t *testing.T) {
	c := bench.C17()
	ps := Enumerate(c, 5)
	fs := Faults(ps, true)
	if len(fs) != 10 {
		t.Errorf("Faults(both) returned %d, want 10", len(fs))
	}
	fs = Faults(ps, false)
	if len(fs) != 5 {
		t.Errorf("Faults(rising only) returned %d, want 5", len(fs))
	}
	for _, f := range fs {
		if f.Transition != Rising {
			t.Error("rising-only expansion produced a falling fault")
		}
	}
}

func TestSampleDeterministicAndValid(t *testing.T) {
	c := bench.Adder(12)
	a := Sample(c, 50, 7)
	b := Sample(c, 50, 7)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("Sample returned %d and %d paths", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("sampling is not deterministic for the same seed")
		}
	}
	for _, p := range a {
		if err := p.Validate(c); err != nil {
			t.Errorf("sampled path invalid: %v", err)
		}
	}
	diff := Sample(c, 50, 8)
	same := true
	for i := range diff {
		if diff[i].Key() != a[i].Key() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different samples")
	}
	if got := Sample(c, 0, 1); got != nil {
		t.Error("Sample(0) should return nil")
	}
	fs := SampleFaults(c, 11, 3)
	if len(fs) != 11 {
		t.Errorf("SampleFaults returned %d faults, want 11", len(fs))
	}
}

func TestLongestPaths(t *testing.T) {
	c := bench.Adder(8)
	longest := LongestPaths(c, 5, 0)
	if len(longest) != 5 {
		t.Fatalf("LongestPaths returned %d paths", len(longest))
	}
	for i := 1; i < len(longest); i++ {
		if longest[i].Len() > longest[i-1].Len() {
			t.Error("LongestPaths is not sorted by decreasing length")
		}
	}
	// The longest path of a ripple-carry adder runs through every carry
	// stage: its length is at least proportional to the width.
	if longest[0].Len() < 10 {
		t.Errorf("longest path of adder8 has only %d nets", longest[0].Len())
	}
	if got := LongestPaths(c, 0, 0); got != nil {
		t.Error("LongestPaths(0) should return nil")
	}
}

func BenchmarkCountPaths(b *testing.B) {
	p, _ := bench.ProfileByName("c880")
	c := bench.MustSynthesize(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountPaths(c)
	}
}

func BenchmarkEnumerate1000(b *testing.B) {
	p, _ := bench.ProfileByName("c880")
	c := bench.MustSynthesize(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Enumerate(c, 1000)
	}
}

func BenchmarkSample1000(b *testing.B) {
	p, _ := bench.ProfileByName("c880")
	c := bench.MustSynthesize(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sample(c, 1000, int64(i))
	}
}
