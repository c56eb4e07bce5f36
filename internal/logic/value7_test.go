package logic

import (
	"testing"
	"testing/quick"
)

// TestTable2Encoding checks the robust encoding against Table 2 of the paper.
func TestTable2Encoding(t *testing.T) {
	cases := []struct {
		v        Value7
		zero     bool
		one      bool
		stable   bool
		instable bool
	}{
		{Stable0, true, false, true, false},
		{Stable1, false, true, true, false},
		{Fall7, true, false, false, true},
		{Rise7, false, true, false, true},
		{Final0, true, false, false, false},
		{Final1, false, true, false, false},
		{X7, false, false, false, false},
	}
	for _, c := range cases {
		if got := c.v.ZeroBit(); got != c.zero {
			t.Errorf("%v.ZeroBit() = %v, want %v", c.v, got, c.zero)
		}
		if got := c.v.OneBit(); got != c.one {
			t.Errorf("%v.OneBit() = %v, want %v", c.v, got, c.one)
		}
		if got := c.v.StableBit(); got != c.stable {
			t.Errorf("%v.StableBit() = %v, want %v", c.v, got, c.stable)
		}
		if got := c.v.InstableBit(); got != c.instable {
			t.Errorf("%v.InstableBit() = %v, want %v", c.v, got, c.instable)
		}
		if c.v.IsConflict() {
			t.Errorf("%v must not be a conflict", c.v)
		}
	}
	// The two conflict patterns of Table 2.
	if !(Final0 | Final1).IsConflict() {
		t.Error("0-bit and 1-bit together must be a conflict")
	}
	if !(Stable1 | Rise7).IsConflict() {
		t.Error("stable-bit and instable-bit together must be a conflict")
	}
}

func TestValue7InitialFinal(t *testing.T) {
	cases := []struct {
		v           Value7
		final, init Value3
	}{
		{Stable0, Zero3, Zero3},
		{Stable1, One3, One3},
		{Fall7, Zero3, One3},
		{Rise7, One3, Zero3},
		{Final0, Zero3, X3},
		{Final1, One3, X3},
		{X7, X3, X3},
	}
	for _, c := range cases {
		if got := c.v.Final(); got != c.final {
			t.Errorf("%v.Final() = %v, want %v", c.v, got, c.final)
		}
		if got := c.v.Initial(); got != c.init {
			t.Errorf("%v.Initial() = %v, want %v", c.v, got, c.init)
		}
	}
}

func TestValue7Not(t *testing.T) {
	cases := map[Value7]Value7{
		Stable0: Stable1,
		Stable1: Stable0,
		Fall7:   Rise7,
		Rise7:   Fall7,
		Final0:  Final1,
		Final1:  Final0,
		X7:      X7,
	}
	for in, want := range cases {
		if got := in.Not(); got != want {
			t.Errorf("%v.Not() = %v, want %v", in, got, want)
		}
		if got := in.Not().Not(); got != in {
			t.Errorf("double complement of %v gave %v", in, got)
		}
	}
}

func TestValue7MergeConflicts(t *testing.T) {
	if got := Stable0.Merge(Rise7); !got.IsConflict() {
		t.Errorf("Stable0.Merge(Rise7) = %v, want conflict", got)
	}
	if got := Stable1.Merge(Fall7); !got.IsConflict() {
		t.Errorf("Stable1.Merge(Fall7) = %v, want conflict", got)
	}
	if got := Final1.Merge(Stable1); got != Stable1 {
		t.Errorf("Final1.Merge(Stable1) = %v, want Stable1", got)
	}
	if got := Final1.Merge(Rise7); got != Rise7 {
		t.Errorf("Final1.Merge(Rise7) = %v, want Rise7", got)
	}
	if got := X7.Merge(Fall7); got != Fall7 {
		t.Errorf("X7.Merge(Fall7) = %v, want Fall7", got)
	}
	if got := Fall7.Merge(Rise7); !got.IsConflict() {
		t.Errorf("Fall7.Merge(Rise7) = %v, want conflict", got)
	}
}

func TestValue7CoversAndWeaken(t *testing.T) {
	if !Stable1.Covers(Final1) {
		t.Error("Stable1 must cover the weaker requirement Final1")
	}
	if Final1.Covers(Stable1) {
		t.Error("Final1 must not cover Stable1")
	}
	if !Rise7.Covers(Final1) {
		t.Error("Rise7 must cover Final1")
	}
	if Value7From3(One3) != Final1 || Value7From3(Zero3) != Final0 || Value7From3(X3) != X7 {
		t.Error("Value7From3 lifting is wrong")
	}
}

func TestValue7StringParseRoundTrip(t *testing.T) {
	seen := make(map[string]Value7)
	for _, v := range AllValues7() {
		if prev, dup := seen[v.String()]; dup {
			t.Errorf("%04b and %04b share the name %q", uint8(prev), uint8(v), v.String())
		}
		seen[v.String()] = v
	}
}

func TestEval7TruthTables(t *testing.T) {
	type tc struct {
		kind Kind
		in   []Value7
		want Value7
	}
	cases := []tc{
		// A stable controlling value dominates everything.
		{And, []Value7{Stable0, Rise7}, Stable0},
		{And, []Value7{Stable0, X7}, Stable0},
		{Or, []Value7{Stable1, Fall7}, Stable1},
		{Nand, []Value7{Stable0, X7}, Stable1},
		{Nor, []Value7{Stable1, X7}, Stable0},
		// A transition propagates through a gate whose side input holds the
		// stable non-controlling value.
		{And, []Value7{Rise7, Stable1}, Rise7},
		{And, []Value7{Fall7, Stable1}, Fall7},
		{Nand, []Value7{Rise7, Stable1}, Fall7},
		{Or, []Value7{Fall7, Stable0}, Fall7},
		{Nor, []Value7{Rise7, Stable0}, Fall7},
		{Not, []Value7{Rise7}, Fall7},
		{Buf, []Value7{Rise7}, Rise7},
		// A transition also propagates when the side input only has a final
		// non-controlling value, but then the result is only a transition if
		// the initial value is still determined.
		{And, []Value7{Rise7, Final1}, Rise7},
		// With a falling on-path input the side input's unknown initial value
		// may already hold the output at 0, so only the final value is known.
		{And, []Value7{Fall7, Final1}, Final0},
		// Two opposite transitions into an AND may glitch: the output is only
		// known to end at 0.
		{And, []Value7{Rise7, Fall7}, Final0},
		{Or, []Value7{Rise7, Fall7}, Final1},
		// XOR of two transitions in the same direction cancels into a final
		// value with a possible hazard.
		{Xor, []Value7{Rise7, Rise7}, Final0},
		{Xor, []Value7{Rise7, Fall7}, Final1},
		{Xor, []Value7{Rise7, Stable0}, Rise7},
		{Xor, []Value7{Rise7, Stable1}, Fall7},
		{Xnor, []Value7{Rise7, Stable1}, Rise7},
		// Stability of XOR requires all inputs stable.
		{Xor, []Value7{Stable1, Stable1}, Stable0},
		{Xor, []Value7{Stable1, Final1}, Final0},
		// Constants.
		{Const0, nil, Stable0},
		{Const1, nil, Stable1},
		// Unknowns.
		{And, []Value7{Rise7, X7}, X7},
		{Or, []Value7{Fall7, X7}, X7},
		{And, []Value7{Final1, Final1}, Final1},
		{And, []Value7{Stable1, Stable1, Stable1}, Stable1},
		{And, []Value7{Stable1, Stable1, Rise7}, Rise7},
	}
	for _, c := range cases {
		if got := Eval7(c.kind, c.in...); got != c.want {
			t.Errorf("Eval7(%v, %v) = %v, want %v", c.kind, c.in, got, c.want)
		}
	}
}

// TestEval7FinalProjection is a property test: the final value of the
// seven-valued evaluation always agrees with the three-valued evaluation of
// the final values of the inputs.
func TestEval7FinalProjection(t *testing.T) {
	kinds := []Kind{And, Nand, Or, Nor, Xor, Xnor, Buf, Not}
	vals := AllValues7()
	f := func(kindIdx uint8, raw [3]uint8) bool {
		kind := kinds[int(kindIdx)%len(kinds)]
		n := 3
		if kind == Buf || kind == Not {
			n = 1
		}
		in7 := make([]Value7, n)
		in3 := make([]Value3, n)
		for i := 0; i < n; i++ {
			in7[i] = vals[int(raw[i])%len(vals)]
			in3[i] = in7[i].Final()
		}
		got := Eval7(kind, in7...).Final()
		want := Eval3(kind, in3...)
		// The seven-valued evaluation may know less than the three-valued
		// one never; it must agree exactly on the final value.
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// TestEval7StabilitySound is a property test: whenever the evaluation claims
// the output is stable, every waveform consistent with the inputs indeed
// produces a constant output.  The check is performed by exhaustive
// simulation of the two-vector behaviour: stable values have equal vectors,
// transitions have complementary vectors, and "final only" values are tried
// with both initial values.
func TestEval7StabilitySound(t *testing.T) {
	kinds := []Kind{And, Nand, Or, Nor, Xor, Xnor}
	vals := AllValues7()
	f := func(kindIdx uint8, raw [3]uint8) bool {
		kind := kinds[int(kindIdx)%len(kinds)]
		in := make([]Value7, 3)
		for i := range in {
			in[i] = vals[int(raw[i])%len(vals)]
		}
		out := Eval7(kind, in...)
		if !out.StableBit() && !out.InstableBit() {
			return true
		}
		// Enumerate all initial-value choices consistent with the inputs.
		choices := make([][]Value3, len(in))
		for i, v := range in {
			switch v.Initial() {
			case Zero3:
				choices[i] = []Value3{Zero3}
			case One3:
				choices[i] = []Value3{One3}
			default:
				if v.Final() == X3 {
					// Unknown final value: the output should not have claimed
					// stability from it anyway; try both.
					choices[i] = []Value3{Zero3, One3}
				} else {
					choices[i] = []Value3{Zero3, One3}
				}
			}
		}
		finals := make([]Value3, len(in))
		for i, v := range in {
			finals[i] = v.Final()
			if finals[i] == X3 {
				// Cannot check further; skip.
				return true
			}
		}
		finalOut := Eval3(kind, finals...)
		ok := true
		var rec func(i int, inits []Value3)
		rec = func(i int, inits []Value3) {
			if !ok {
				return
			}
			if i == len(in) {
				initOut := Eval3(kind, inits...)
				if out.StableBit() && initOut != finalOut {
					ok = false
				}
				if out.InstableBit() && initOut == finalOut {
					ok = false
				}
				return
			}
			for _, c := range choices[i] {
				next := append(append([]Value3{}, inits...), c)
				rec(i+1, next)
			}
		}
		rec(0, nil)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
