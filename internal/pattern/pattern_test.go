package pattern

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/logic"
)

func TestPairBasics(t *testing.T) {
	p := NewPair(4)
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	for i := 0; i < 4; i++ {
		if p.V1[i] != logic.X3 || p.V2[i] != logic.X3 {
			t.Fatal("new pair should be all X")
		}
	}
	p.V1[0], p.V2[0] = logic.Zero3, logic.One3 // rising
	p.V1[1], p.V2[1] = logic.One3, logic.One3  // stable 1
	p.V1[2], p.V2[2] = logic.X3, logic.Zero3   // final 0 only
	if p.Value7(0) != logic.Rise7 {
		t.Errorf("Value7(0) = %v", p.Value7(0))
	}
	if p.Value7(1) != logic.Stable1 {
		t.Errorf("Value7(1) = %v", p.Value7(1))
	}
	if p.Value7(2) != logic.Final0 {
		t.Errorf("Value7(2) = %v", p.Value7(2))
	}
	if p.Value7(3) != logic.X7 {
		t.Errorf("Value7(3) = %v", p.Value7(3))
	}
	if p.Transitions() != 1 {
		t.Errorf("Transitions = %d, want 1", p.Transitions())
	}

	clone := p.Clone()
	clone.V1[0] = logic.One3
	if p.V1[0] != logic.Zero3 {
		t.Error("Clone shares storage")
	}

	filled := p.FillX(logic.Zero3)
	if filled.V2[3] != logic.Zero3 || filled.V1[3] != logic.Zero3 {
		t.Error("FillX should fill unassigned positions")
	}
	if filled.V1[2] != logic.Zero3 {
		t.Error("FillX should copy the final value into an unknown initial value")
	}
	if filled.Transitions() != 1 {
		t.Error("FillX must not introduce new transitions")
	}
}

func TestPairStringRoundTrip(t *testing.T) {
	p := NewPair(3)
	p.V1[0], p.V2[0] = logic.Zero3, logic.One3
	p.V1[1], p.V2[1] = logic.One3, logic.One3
	s := p.String()
	if s != "01x -> 11x" {
		t.Errorf("String = %q", s)
	}
	q, err := ParsePair(s)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != s {
		t.Errorf("round trip gave %q", q.String())
	}
	if _, err := ParsePair("01"); err == nil {
		t.Error("pair without -> should fail")
	}
	if _, err := ParsePair("01 -> 0"); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := ParsePair("0z -> 00"); err == nil {
		t.Error("bad character should fail")
	}
}

// referenceString is the pair text as the codec first wrote it, one
// Value3.String per value, lower-cased per vector and concatenated.  The
// one-allocation Pair.String must reproduce it byte for byte.
func referenceString(p Pair) string {
	vec := func(v []logic.Value3) string {
		var sb strings.Builder
		for _, x := range v {
			sb.WriteString(x.String())
		}
		return strings.ToLower(sb.String())
	}
	return vec(p.V1) + " -> " + vec(p.V2)
}

// randomPair draws a pair of n inputs over 0, 1 and x.
func randomPair(rng *rand.Rand, n int) Pair {
	codes := []logic.Value3{logic.X3, logic.Zero3, logic.One3}
	p := NewPair(n)
	for i := 0; i < n; i++ {
		p.V1[i] = codes[rng.Intn(len(codes))]
		p.V2[i] = codes[rng.Intn(len(codes))]
	}
	return p
}

// TestPairStringMatchesReference: Pair.String writes the reference text for
// every Value3 code — the conflict code and an out-of-range one included —
// and for random pairs at the widths of the c880 and s38584 stand-ins, and
// ParsePair reads every pattern back to the pair it came from.
func TestPairStringMatchesReference(t *testing.T) {
	for _, v := range []logic.Value3{logic.X3, logic.Zero3, logic.One3, logic.Conflict3, logic.Value3(7)} {
		p := Pair{V1: []logic.Value3{v, logic.Zero3}, V2: []logic.Value3{logic.One3, v}}
		if got, want := p.String(), referenceString(p); got != want {
			t.Errorf("code %d: String = %q, reference %q", v, got, want)
		}
	}
	if got := (Pair{}).String(); got != " -> " {
		t.Errorf("empty pair: String = %q", got)
	}
	rng := rand.New(rand.NewSource(1995))
	for _, name := range []string{"c880", "s38584"} {
		prof, ok := bench.ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		for k := 0; k < 50; k++ {
			p := randomPair(rng, prof.Inputs)
			s := p.String()
			if want := referenceString(p); s != want {
				t.Fatalf("%s pair %d: String differs from the reference", name, k)
			}
			q, err := ParsePair(s)
			if err != nil {
				t.Fatalf("%s pair %d: %v", name, k, err)
			}
			if !samePair(p, q) {
				t.Fatalf("%s pair %d: ParsePair(String) is not the pair", name, k)
			}
		}
	}
}

// pairText keeps BenchmarkPairString's result alive.
var pairText string

// BenchmarkPairString renders one pair at the s38584 stand-in's width
// (1,464 inputs).  It makes one allocation: the text at its final size.
func BenchmarkPairString(b *testing.B) {
	prof, _ := bench.ProfileByName("s38584")
	p := randomPair(rand.New(rand.NewSource(1995)), prof.Inputs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairText = p.String()
	}
}

func TestSetWriteRead(t *testing.T) {
	c := bench.C17()
	s := NewSet(c)
	if len(s.InputNames) != 5 {
		t.Fatalf("input names = %v", s.InputNames)
	}
	p1 := NewPair(5).FillX(logic.Zero3)
	p2 := NewPair(5).FillX(logic.One3)
	p2.V1[0] = logic.Zero3
	s.Add(p1, "fault A")
	s.Add(p2, "")
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	text := s.String()
	if !strings.Contains(text, "# inputs: 1 2 3 6 7") {
		t.Errorf("missing header in:\n%s", text)
	}
	if !strings.Contains(text, "fault A") {
		t.Errorf("missing target comment in:\n%s", text)
	}
	back, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("read back %d pairs", back.Len())
	}
	if back.Pairs[1].String() != p2.String() {
		t.Errorf("pair 1 changed: %q vs %q", back.Pairs[1].String(), p2.String())
	}
	if back.Targets[0] != "fault A" {
		t.Errorf("target lost: %q", back.Targets[0])
	}
	if len(back.InputNames) != 5 {
		t.Errorf("input names lost: %v", back.InputNames)
	}
	if _, err := Read(strings.NewReader("garbage line\n")); err == nil {
		t.Error("malformed set should fail to parse")
	}
}

// TestWriteReadRoundTripUnfilled checks the full round trip of a set with
// unfilled tracking, as produced by merged/compacted test sets: pair order,
// target association and unfilled annotations must all survive, and the
// serialization must be deterministic.
func TestWriteReadRoundTripUnfilled(t *testing.T) {
	s := &Set{InputNames: []string{"a", "b", "c"}}
	p1, _ := ParsePair("010 -> 011")
	u1, _ := ParsePair("x1x -> x11")
	p2, _ := ParsePair("111 -> 101")
	s.AddUnfilled(p1, u1, "fault A + fault B")
	s.Add(p2, "fault C")

	text := s.String()
	if !strings.Contains(text, "#~ unfilled: x1x -> x11") {
		t.Fatalf("unfilled annotation missing:\n%s", text)
	}
	if text != s.String() {
		t.Error("Write is not deterministic")
	}

	back, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("read back %d pairs", back.Len())
	}
	if back.Targets[0] != "fault A + fault B" || back.Targets[1] != "fault C" {
		t.Errorf("target ordering lost: %v", back.Targets)
	}
	if back.UnfilledAt(0).String() != u1.String() {
		t.Errorf("unfilled form lost: %q", back.UnfilledAt(0).String())
	}
	if back.UnfilledAt(1).String() != p2.String() {
		t.Errorf("fully specified pair's unfilled form should be itself: %q", back.UnfilledAt(1).String())
	}
	// Second round trip must be byte-identical (deterministic output).
	if back.String() != text {
		t.Errorf("round trip not stable:\n%s\nvs\n%s", back.String(), text)
	}
}

// TestAppendKeepsUnfilled checks that Append propagates unfilled forms when
// either side tracks them (the sharded merge path).
func TestAppendKeepsUnfilled(t *testing.T) {
	p1, _ := ParsePair("00 -> 01")
	u1, _ := ParsePair("x0 -> x1")
	p2, _ := ParsePair("11 -> 10")

	a := &Set{}
	a.Add(p2, "plain")
	b := &Set{}
	b.AddUnfilled(p1, u1, "tracked")

	base := a.Append(b)
	if base != 1 || a.Len() != 2 {
		t.Fatalf("Append base=%d len=%d", base, a.Len())
	}
	if a.Unfilled == nil {
		t.Fatal("Append dropped unfilled tracking")
	}
	if a.UnfilledAt(0).String() != p2.String() {
		t.Errorf("backfilled unfilled form wrong: %q", a.UnfilledAt(0).String())
	}
	if a.UnfilledAt(1).String() != u1.String() {
		t.Errorf("appended unfilled form wrong: %q", a.UnfilledAt(1).String())
	}
	if a.Targets[1] != "tracked" {
		t.Errorf("target lost in Append: %v", a.Targets)
	}
}

// TestSliceTruncate checks the window operations compaction splices with.
func TestSliceTruncate(t *testing.T) {
	s := &Set{InputNames: []string{"a", "b"}}
	for i := 0; i < 4; i++ {
		p, _ := ParsePair("01 -> 10")
		s.AddUnfilled(p, p, string(rune('a'+i)))
	}
	w := s.Slice(2)
	if w.Len() != 2 || w.Targets[0] != "c" || len(w.Unfilled) != 2 {
		t.Fatalf("Slice(2): len=%d targets=%v unfilled=%d", w.Len(), w.Targets, len(w.Unfilled))
	}
	if w.InputNames[0] != "a" {
		t.Error("Slice lost input names")
	}
	s.Truncate(1)
	if s.Len() != 1 || len(s.Targets) != 1 || len(s.Unfilled) != 1 {
		t.Fatalf("Truncate(1): len=%d targets=%d unfilled=%d", s.Len(), len(s.Targets), len(s.Unfilled))
	}
	s.Truncate(5) // no-op beyond length
	if s.Len() != 1 {
		t.Error("Truncate beyond length changed the set")
	}
}

// TestWriteNoHeaderWithoutNames checks that a set without input names emits
// no header (so Write/Read round-trips cleanly).
func TestWriteNoHeaderWithoutNames(t *testing.T) {
	s := &Set{}
	p, _ := ParsePair("0 -> 1")
	s.Add(p, "")
	if strings.Contains(s.String(), "# inputs") {
		t.Errorf("unexpected header: %q", s.String())
	}
	back, err := Read(strings.NewReader(s.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.InputNames != nil {
		t.Errorf("InputNames should stay nil, got %v", back.InputNames)
	}
	if back.String() != s.String() {
		t.Error("round trip differs")
	}
}
