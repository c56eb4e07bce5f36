package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWord7GetSet(t *testing.T) {
	var w Word7
	values := AllValues7()
	for i := 0; i < WordWidth; i++ {
		w.Set(i, values[i%len(values)])
	}
	for i := 0; i < WordWidth; i++ {
		if got := w.Get(i); got != values[i%len(values)] {
			t.Fatalf("level %d: got %v, want %v", i, got, values[i%len(values)])
		}
	}
	w.Set(9, Stable1)
	if w.Get(9) != Stable1 {
		t.Errorf("overwrite failed: %v", w.Get(9))
	}
	w.MergeAt(9, Fall7)
	if !w.Get(9).IsConflict() {
		t.Errorf("MergeAt of incompatible requirements should conflict, got %v", w.Get(9))
	}
}

func TestWord7FillAndMasks(t *testing.T) {
	w := FillWord7(Rise7)
	if w.One != AllLevels || w.Instable != AllLevels || w.Zero != 0 || w.Stable != 0 {
		t.Fatalf("FillWord7(Rise7) = %+v", w)
	}
	for _, c := range []Value7{Stable0 | Stable1, Stable1 | Rise7} {
		if v := FillWord7(c).Get(WordWidth - 1); !v.IsConflict() {
			t.Errorf("FillWord7(%v) holds %v at the top level, want a conflict", c, v)
		}
	}
}

func TestWord7InitialPlanes(t *testing.T) {
	var w Word7
	w.Set(0, Stable0) // initial 0
	w.Set(1, Stable1) // initial 1
	w.Set(2, Rise7)   // initial 0
	w.Set(3, Fall7)   // initial 1
	w.Set(4, Final0)  // initial unknown
	i0, i1 := w.InitialPlanes()
	if i0&uint64(LevelsMask(5)) != 0b00101 {
		t.Errorf("init0 plane = %05b", i0&uint64(LevelsMask(5)))
	}
	if i1&uint64(LevelsMask(5)) != 0b01010 {
		t.Errorf("init1 plane = %05b", i1&uint64(LevelsMask(5)))
	}
}

// TestEvalGate7MatchesScalar cross-checks the bit-parallel seven-valued gate
// evaluation against the scalar reference at every bit level for random
// non-conflicting inputs.  This is the central correctness property of the
// Table 2 encoding.
func TestEvalGate7MatchesScalar(t *testing.T) {
	kinds := []Kind{Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
	vals := AllValues7()
	rng := rand.New(rand.NewSource(1995))
	for iter := 0; iter < 200; iter++ {
		kind := kinds[rng.Intn(len(kinds))]
		n := 1
		if kind != Buf && kind != Not {
			n = 1 + rng.Intn(4)
		}
		in := make([]Word7, n)
		for i := range in {
			for lvl := 0; lvl < WordWidth; lvl++ {
				in[i].Set(lvl, vals[rng.Intn(len(vals))])
			}
		}
		out := EvalGate7(kind, in)
		for lvl := 0; lvl < WordWidth; lvl++ {
			scalarIn := make([]Value7, n)
			for i := range in {
				scalarIn[i] = in[i].Get(lvl)
			}
			want := Eval7(kind, scalarIn...)
			if got := out.Get(lvl); got != want {
				t.Fatalf("kind %v level %d: parallel %v, scalar %v (inputs %v)",
					kind, lvl, got, want, scalarIn)
			}
		}
	}
}

// TestEvalGate7SingleLevelProperty mirrors the 3-valued property test with
// testing/quick over single levels.
func TestEvalGate7SingleLevelProperty(t *testing.T) {
	kinds := []Kind{And, Nand, Or, Nor, Xor, Xnor}
	vals := AllValues7()
	f := func(kindIdx uint8, raw [3]uint8, level uint8) bool {
		kind := kinds[int(kindIdx)%len(kinds)]
		lvl := int(level) % WordWidth
		in := make([]Word7, len(raw))
		scalarIn := make([]Value7, len(raw))
		for i, r := range raw {
			v := vals[int(r)%len(vals)]
			scalarIn[i] = v
			in[i].Set(lvl, v)
		}
		out := EvalGate7(kind, in)
		return out.Get(lvl) == Eval7(kind, scalarIn...)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestEvalGate7Constants(t *testing.T) {
	if EvalGate7(Const0, nil) != FillWord7(Stable0) {
		t.Error("Const0 evaluation wrong")
	}
	if EvalGate7(Const1, nil) != FillWord7(Stable1) {
		t.Error("Const1 evaluation wrong")
	}
	if (EvalGate7(And, nil) != Word7{}) {
		t.Error("AND of no inputs should be X")
	}
	in := FillWord7(Rise7)
	if EvalGate7(Buf, []Word7{in}) != in {
		t.Error("BUF should copy its input")
	}
	if EvalGate7(Not, []Word7{in}) != FillWord7(Fall7) {
		t.Error("NOT should turn a rising transition into a falling one")
	}
}

func BenchmarkTable2GateEval(b *testing.B) {
	// Evaluates a 4-input AND over all 64 bit levels in the seven-valued
	// logic of Table 2: the gate evaluation the implication engine runs once
	// per plane word, for both test classes.
	vals := AllValues7()
	in := make([]Word7, 4)
	rng := rand.New(rand.NewSource(7))
	for i := range in {
		for lvl := 0; lvl < WordWidth; lvl++ {
			in[i].Set(lvl, vals[rng.Intn(len(vals))])
		}
	}
	b.ResetTimer()
	var sink Word7
	for i := 0; i < b.N; i++ {
		sink = EvalGate7(And, in)
	}
	_ = sink
}
