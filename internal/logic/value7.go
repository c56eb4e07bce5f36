package logic

import "fmt"

// Value7 is a scalar value of the seven-valued logic of Lin and Reddy used
// for robust test generation.  The encoding follows Table 2 of the paper and
// uses four bits: the 0-bit, the 1-bit, the stable-bit and the instable-bit.
//
//	logic value      0-bit  1-bit  stable-bit  instable-bit
//	0s  (stable 0)     1      0        1           0
//	1s  (stable 1)     0      1        1           0
//	0ŝ  (falling)      1      0        0           1
//	1ŝ  (rising)       0      1        0           1
//	0x  (final 0)      1      0        0           0
//	1x  (final 1)      0      1        0           0
//	X                  0      0        0           0
//	conflict           1      1        -           -
//	conflict           -      -        1           1
//
// The interpretation is in terms of the two-vector test (V1, V2): the 0/1
// bits give the final (V2) value; the stable bit asserts that the signal is
// constant and hazard-free across the whole test; the instable bit asserts
// that the signal carries a transition, i.e. its initial (V1) value is the
// complement of its final value.
type Value7 uint8

// Encoding bits of Value7.
const (
	zeroBit7     Value7 = 1 << 0
	oneBit7      Value7 = 1 << 1
	stableBit7   Value7 = 1 << 2
	instableBit7 Value7 = 1 << 3
)

// The seven values of the robust logic plus the unassigned value X7.
const (
	X7      Value7 = 0                       // unassigned
	Final0  Value7 = zeroBit7                // 0x: final value 0, initial value unknown
	Final1  Value7 = oneBit7                 // 1x: final value 1, initial value unknown
	Stable0 Value7 = zeroBit7 | stableBit7   // 0s: constant hazard-free 0
	Stable1 Value7 = oneBit7 | stableBit7    // 1s: constant hazard-free 1
	Fall7   Value7 = zeroBit7 | instableBit7 // 0ŝ: falling transition 1 -> 0
	Rise7   Value7 = oneBit7 | instableBit7  // 1ŝ: rising transition 0 -> 1
)

// ZeroBit reports whether the 0-bit is set (final value 0 required/known).
func (v Value7) ZeroBit() bool { return v&zeroBit7 != 0 }

// OneBit reports whether the 1-bit is set (final value 1 required/known).
func (v Value7) OneBit() bool { return v&oneBit7 != 0 }

// StableBit reports whether the stable-bit is set.
func (v Value7) StableBit() bool { return v&stableBit7 != 0 }

// InstableBit reports whether the instable-bit is set.
func (v Value7) InstableBit() bool { return v&instableBit7 != 0 }

// IsConflict reports whether the encoding is illegal, exactly as in Table 2
// of the paper: both value bits set, or both stability bits set.
func (v Value7) IsConflict() bool {
	if v.ZeroBit() && v.OneBit() {
		return true
	}
	if v.StableBit() && v.InstableBit() {
		return true
	}
	return false
}

// Final returns the final (second-vector) value of v as a three-valued value.
func (v Value7) Final() Value3 {
	var out Value3
	if v.ZeroBit() {
		out |= Zero3
	}
	if v.OneBit() {
		out |= One3
	}
	return out
}

// Initial returns the initial (first-vector) value of v as a three-valued
// value.  It is known only for stable values (equal to the final value) and
// for transitions (complement of the final value).
func (v Value7) Initial() Value3 {
	if v.IsConflict() {
		return Conflict3
	}
	switch {
	case v.StableBit():
		return v.Final()
	case v.InstableBit():
		return v.Final().Not()
	}
	return X3
}

// Not returns the complement of v: the final value is inverted while the
// stability information is preserved (the complement of a constant is a
// constant; the complement of a rising transition is a falling transition).
func (v Value7) Not() Value7 {
	if v.IsConflict() {
		return v
	}
	out := v &^ (zeroBit7 | oneBit7)
	if v.ZeroBit() {
		out |= oneBit7
	}
	if v.OneBit() {
		out |= zeroBit7
	}
	return out
}

// Merge combines two value requirements on the same signal by accumulating
// their encoding bits.  Incompatible requirements produce a conflict.
func (v Value7) Merge(o Value7) Value7 { return v | o }

// Covers reports whether v satisfies the requirement o: every encoding bit
// demanded by o is present in v.
func (v Value7) Covers(o Value7) bool { return v&o == o }

// Value7From3 lifts a three-valued value into the seven-valued logic with
// unknown stability.
func Value7From3(v Value3) Value7 {
	var out Value7
	if v.ZeroBit() {
		out |= zeroBit7
	}
	if v.OneBit() {
		out |= oneBit7
	}
	return out
}

// String renders the value using the paper's notation: 0s, 1s, 0i, 1i
// (instable), 0x, 1x, X, or C for a conflict.
func (v Value7) String() string {
	if v.IsConflict() {
		return "C"
	}
	switch v {
	case X7:
		return "X"
	case Stable0:
		return "0s"
	case Stable1:
		return "1s"
	case Fall7:
		return "0i"
	case Rise7:
		return "1i"
	case Final0:
		return "0x"
	case Final1:
		return "1x"
	}
	return fmt.Sprintf("Value7(%04b)", uint8(v))
}

// AllValues7 lists the seven legal values plus X in a deterministic order;
// useful for exhaustive tests.
func AllValues7() []Value7 {
	return []Value7{X7, Final0, Final1, Stable0, Stable1, Fall7, Rise7}
}

// Eval7 evaluates a gate of the given kind over scalar seven-valued inputs.
// It is the scalar reference implementation cross-checked against the
// bit-parallel evaluation in Word7.  The behaviour on conflicting inputs is
// unspecified (the generator abandons conflicting bit levels before they are
// ever re-evaluated); Eval7 returns a conflict in that case.
func Eval7(kind Kind, in ...Value7) Value7 {
	for _, v := range in {
		if v.IsConflict() {
			return zeroBit7 | oneBit7
		}
	}
	switch kind {
	case Buf, Input:
		if len(in) == 0 {
			return X7
		}
		return in[0]
	case Not:
		if len(in) == 0 {
			return X7
		}
		return in[0].Not()
	case Const0:
		return Stable0
	case Const1:
		return Stable1
	case And, Nand:
		out := and7(in)
		if kind == Nand {
			out = out.Not()
		}
		return out
	case Or, Nor:
		// OR is the dual of AND: complement inputs, AND, complement output.
		dual := make([]Value7, len(in))
		for i, v := range in {
			dual[i] = v.Not()
		}
		out := and7(dual).Not()
		if kind == Nor {
			out = out.Not()
		}
		return out
	case Xor, Xnor:
		out := xor7(in)
		if kind == Xnor {
			out = out.Not()
		}
		return out
	}
	return X7
}

// and7 evaluates an AND over seven-valued inputs using the waveform
// interpretation: the final value is the AND of the finals, the initial value
// is the AND of the initials, the output is stable if all inputs are stable
// or some input is a stable 0, and the output carries a transition when its
// initial and final values are known and differ.
func and7(in []Value7) Value7 {
	if len(in) == 0 {
		return X7
	}
	finals := make([]Value3, len(in))
	inits := make([]Value3, len(in))
	allStable := true
	anyStableZero := false
	for i, v := range in {
		finals[i] = v.Final()
		inits[i] = v.Initial()
		if !v.StableBit() {
			allStable = false
		}
		if v == Stable0 {
			anyStableZero = true
		}
	}
	final := and3(finals)
	init := and3(inits)
	stable := allStable || anyStableZero
	return compose7(final, init, stable)
}

// xor7 evaluates an XOR over seven-valued inputs.  The output is stable only
// when every input is stable; a guaranteed transition appears when the
// initial and final parities are both known and differ.
func xor7(in []Value7) Value7 {
	if len(in) == 0 {
		return X7
	}
	finals := make([]Value3, len(in))
	inits := make([]Value3, len(in))
	allStable := true
	for i, v := range in {
		finals[i] = v.Final()
		inits[i] = v.Initial()
		if !v.StableBit() {
			allStable = false
		}
	}
	return compose7(xor3(finals), xor3(inits), allStable)
}

// compose7 assembles a Value7 from a final value, an initial value and a
// stability guarantee.  An unknown final value collapses to X because the
// seven-valued logic cannot express "stable at an unknown value".
func compose7(final, init Value3, stable bool) Value7 {
	switch final {
	case Zero3:
		switch {
		case stable:
			return Stable0
		case init == One3:
			return Fall7
		default:
			return Final0
		}
	case One3:
		switch {
		case stable:
			return Stable1
		case init == Zero3:
			return Rise7
		default:
			return Final1
		}
	}
	return X7
}
