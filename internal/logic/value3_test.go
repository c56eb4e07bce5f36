package logic

import (
	"testing"
	"testing/quick"
)

// TestTable1Encoding checks the nonrobust encoding against Table 1 of the
// paper: logic 0 is (0-bit=1, 1-bit=0), logic 1 is (0, 1), X is (0, 0) and
// the conflict is (1, 1).
func TestTable1Encoding(t *testing.T) {
	cases := []struct {
		v       Value3
		zeroBit bool
		oneBit  bool
	}{
		{Zero3, true, false},
		{One3, false, true},
		{X3, false, false},
		{Conflict3, true, true},
	}
	for _, c := range cases {
		if got := c.v.ZeroBit(); got != c.zeroBit {
			t.Errorf("%v.ZeroBit() = %v, want %v", c.v, got, c.zeroBit)
		}
		if got := c.v.OneBit(); got != c.oneBit {
			t.Errorf("%v.OneBit() = %v, want %v", c.v, got, c.oneBit)
		}
	}
	if !Conflict3.IsConflict() {
		t.Error("Conflict3.IsConflict() = false, want true")
	}
	for _, v := range []Value3{Zero3, One3, X3} {
		if v.IsConflict() {
			t.Errorf("%v.IsConflict() = true, want false", v)
		}
	}
}

func TestValue3Not(t *testing.T) {
	cases := map[Value3]Value3{
		Zero3:     One3,
		One3:      Zero3,
		X3:        X3,
		Conflict3: Conflict3,
	}
	for in, want := range cases {
		if got := in.Not(); got != want {
			t.Errorf("%v.Not() = %v, want %v", in, got, want)
		}
	}
}

func TestValue3MergeConflict(t *testing.T) {
	if got := Zero3.Merge(One3); got != Conflict3 {
		t.Errorf("Zero3.Merge(One3) = %v, want conflict", got)
	}
	if got := Zero3.Merge(Zero3); got != Zero3 {
		t.Errorf("Zero3.Merge(Zero3) = %v, want Zero3", got)
	}
	if got := X3.Merge(One3); got != One3 {
		t.Errorf("X3.Merge(One3) = %v, want One3", got)
	}
}

func TestValue3Covers(t *testing.T) {
	if !One3.Covers(X3) {
		t.Error("One3 should cover X3")
	}
	if !One3.Covers(One3) {
		t.Error("One3 should cover One3")
	}
	if One3.Covers(Zero3) {
		t.Error("One3 must not cover Zero3")
	}
	if X3.Covers(One3) {
		t.Error("X3 must not cover One3")
	}
	if !Conflict3.Covers(One3) || !Conflict3.Covers(Zero3) {
		t.Error("the conflict encoding covers every requirement by construction")
	}
}

func TestValue3StringParseRoundTrip(t *testing.T) {
	seen := make(map[string]Value3)
	for _, v := range []Value3{Zero3, One3, X3, Conflict3} {
		if prev, dup := seen[v.String()]; dup {
			t.Errorf("%d and %d share the name %q", prev, v, v.String())
		}
		seen[v.String()] = v
	}
}

func TestEval3TruthTables(t *testing.T) {
	type tc struct {
		kind Kind
		in   []Value3
		want Value3
	}
	cases := []tc{
		{And, []Value3{One3, One3}, One3},
		{And, []Value3{One3, Zero3}, Zero3},
		{And, []Value3{X3, Zero3}, Zero3},
		{And, []Value3{X3, One3}, X3},
		{And, []Value3{X3, X3}, X3},
		{Nand, []Value3{One3, One3}, Zero3},
		{Nand, []Value3{Zero3, X3}, One3},
		{Or, []Value3{Zero3, Zero3}, Zero3},
		{Or, []Value3{X3, One3}, One3},
		{Or, []Value3{X3, Zero3}, X3},
		{Nor, []Value3{Zero3, Zero3}, One3},
		{Nor, []Value3{One3, X3}, Zero3},
		{Xor, []Value3{One3, Zero3}, One3},
		{Xor, []Value3{One3, One3}, Zero3},
		{Xor, []Value3{One3, X3}, X3},
		{Xnor, []Value3{One3, One3}, One3},
		{Not, []Value3{Zero3}, One3},
		{Buf, []Value3{Zero3}, Zero3},
		{Const0, nil, Zero3},
		{Const1, nil, One3},
		{And, []Value3{One3, One3, One3, Zero3}, Zero3},
		{Or, []Value3{Zero3, Zero3, Zero3, One3}, One3},
		{Xor, []Value3{One3, One3, One3}, One3},
	}
	for _, c := range cases {
		if got := Eval3(c.kind, c.in...); got != c.want {
			t.Errorf("Eval3(%v, %v) = %v, want %v", c.kind, c.in, got, c.want)
		}
	}
}

// TestEval3ConflictPropagation documents the pessimistic behaviour of the
// scalar reference on conflicting inputs.
func TestEval3ConflictPropagation(t *testing.T) {
	if got := Eval3(And, Conflict3, One3); got != Conflict3 {
		t.Errorf("Eval3(And, C, 1) = %v, want conflict", got)
	}
}

// TestEval3MatchesBoolean checks that on fully assigned inputs the
// three-valued evaluation agrees with plain boolean evaluation.
func TestEval3MatchesBoolean(t *testing.T) {
	kinds := []Kind{And, Nand, Or, Nor, Xor, Xnor}
	for _, kind := range kinds {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				for c := 0; c < 2; c++ {
					in := []Value3{Value3FromBool(a == 1), Value3FromBool(b == 1), Value3FromBool(c == 1)}
					got := Eval3(kind, in...)
					want := Value3FromBool(boolEval(kind, a == 1, b == 1, c == 1))
					if got != want {
						t.Errorf("Eval3(%v, %d%d%d) = %v, want %v", kind, a, b, c, got, want)
					}
				}
			}
		}
	}
}

func boolEval(kind Kind, in ...bool) bool {
	switch kind {
	case And, Nand:
		out := true
		for _, b := range in {
			out = out && b
		}
		if kind == Nand {
			return !out
		}
		return out
	case Or, Nor:
		out := false
		for _, b := range in {
			out = out || b
		}
		if kind == Nor {
			return !out
		}
		return out
	case Xor, Xnor:
		out := false
		for _, b := range in {
			out = out != b
		}
		if kind == Xnor {
			return !out
		}
		return out
	case Not:
		return !in[0]
	case Buf:
		return in[0]
	}
	return false
}

// TestEval3Monotone is a property test: refining an X input to a concrete
// value never changes an already-determined output (the evaluation is
// monotone on the information ordering).
func TestEval3Monotone(t *testing.T) {
	kinds := []Kind{And, Nand, Or, Nor, Xor, Xnor}
	f := func(kindIdx uint8, raw [4]uint8, pos uint8, refineToOne bool) bool {
		kind := kinds[int(kindIdx)%len(kinds)]
		in := make([]Value3, len(raw))
		for i, r := range raw {
			in[i] = []Value3{X3, Zero3, One3}[int(r)%3]
		}
		before := Eval3(kind, in...)
		p := int(pos) % len(in)
		if in[p] != X3 {
			return true
		}
		if refineToOne {
			in[p] = One3
		} else {
			in[p] = Zero3
		}
		after := Eval3(kind, in...)
		if before == X3 {
			return true
		}
		return after == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKindParsing(t *testing.T) {
	cases := map[string]Kind{
		"and": And, "AND": And, "NAND": Nand, "or": Or, "NOR": Nor,
		"XOR": Xor, "xnor": Xnor, "not": Not, "INV": Not, "BUFF": Buf,
		"buf": Buf, "INPUT": Input, "vdd": Const1, "gnd": Const0,
	}
	for s, want := range cases {
		got, err := ParseKind(s)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", s, err)
		}
		if got != want {
			t.Errorf("ParseKind(%q) = %v, want %v", s, got, want)
		}
	}
	if _, err := ParseKind("FLUX"); err == nil {
		t.Error("ParseKind(\"FLUX\") should fail")
	}
}

func TestKindProperties(t *testing.T) {
	if v, ok := And.Controlling(); !ok || v != Zero3 {
		t.Errorf("And.Controlling() = %v, %v", v, ok)
	}
	if v, ok := Nor.Controlling(); !ok || v != One3 {
		t.Errorf("Nor.Controlling() = %v, %v", v, ok)
	}
	if v, ok := Nand.NonControlling(); !ok || v != One3 {
		t.Errorf("Nand.NonControlling() = %v, %v", v, ok)
	}
	if _, ok := Xor.Controlling(); ok {
		t.Error("Xor has no controlling value")
	}
	if !Nand.Inverting() || And.Inverting() {
		t.Error("inversion parity wrong for AND/NAND")
	}
	if !Nor.OutputInversion() || Or.OutputInversion() {
		t.Error("output inversion wrong for OR/NOR")
	}
	for k := Kind(0); k < numKinds; k++ {
		if !k.Valid() {
			t.Errorf("kind %d should be valid", k)
		}
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if Kind(200).Valid() {
		t.Error("kind 200 should be invalid")
	}
}
