package logic

import "fmt"

// Value3 is a scalar value of the three-valued logic used for nonrobust test
// generation.  The encoding follows Table 1 of the paper: bit 0 is the
// "0-bit", bit 1 is the "1-bit".
//
//	logic value   0-bit   1-bit
//	0             1       0
//	1             0       1
//	X             0       0
//	conflict (C)  1       1
type Value3 uint8

// The four encodings of Value3.
const (
	X3        Value3 = 0b00 // unassigned / don't care
	Zero3     Value3 = 0b01 // logic 0
	One3      Value3 = 0b10 // logic 1
	Conflict3 Value3 = 0b11 // illegal assignment (conflicting requirements)
)

// ZeroBit reports whether the 0-bit of the encoding is set.
func (v Value3) ZeroBit() bool { return v&0b01 != 0 }

// OneBit reports whether the 1-bit of the encoding is set.
func (v Value3) OneBit() bool { return v&0b10 != 0 }

// IsConflict reports whether v is the illegal (1,1) encoding.
func (v Value3) IsConflict() bool { return v == Conflict3 }

// IsAssigned reports whether v carries a definite logic value (0 or 1).
func (v Value3) IsAssigned() bool { return v == Zero3 || v == One3 }

// Not returns the boolean complement.  X and conflict are unchanged.
func (v Value3) Not() Value3 {
	switch v {
	case Zero3:
		return One3
	case One3:
		return Zero3
	}
	return v
}

// Merge combines two value requirements on the same signal.  Requirements
// accumulate, so merging is the bitwise OR of the encodings; incompatible
// requirements produce Conflict3.
func (v Value3) Merge(o Value3) Value3 { return v | o }

// Covers reports whether v satisfies the requirement o, i.e. every encoding
// bit demanded by o is present in v.  Every value covers X.
func (v Value3) Covers(o Value3) bool { return v&o == o }

// String renders the value as "0", "1", "X" or "C".
func (v Value3) String() string {
	switch v {
	case X3:
		return "X"
	case Zero3:
		return "0"
	case One3:
		return "1"
	case Conflict3:
		return "C"
	}
	return fmt.Sprintf("Value3(%d)", uint8(v))
}

// Value3FromBool converts a concrete boolean to Zero3/One3.
func Value3FromBool(b bool) Value3 {
	if b {
		return One3
	}
	return Zero3
}

// Eval3 evaluates a gate of the given kind over scalar three-valued inputs.
// It is the scalar reference for the final values of Eval7 (and so of the
// Zero and One planes of EvalGate7), which the test suite cross-checks.
// Conflict inputs propagate pessimistically: the result of any gate with a
// conflicting input is itself a conflict.
func Eval3(kind Kind, in ...Value3) Value3 {
	for _, v := range in {
		if v.IsConflict() {
			return Conflict3
		}
	}
	switch kind {
	case Buf, Input:
		if len(in) == 0 {
			return X3
		}
		return in[0]
	case Not:
		if len(in) == 0 {
			return X3
		}
		return in[0].Not()
	case Const0:
		return Zero3
	case Const1:
		return One3
	case And, Nand:
		out := and3(in)
		if kind == Nand {
			out = out.Not()
		}
		return out
	case Or, Nor:
		out := or3(in)
		if kind == Nor {
			out = out.Not()
		}
		return out
	case Xor, Xnor:
		out := xor3(in)
		if kind == Xnor {
			out = out.Not()
		}
		return out
	}
	return X3
}

func and3(in []Value3) Value3 {
	anyZero, allOne := false, true
	for _, v := range in {
		if v == Zero3 {
			anyZero = true
		}
		if v != One3 {
			allOne = false
		}
	}
	switch {
	case anyZero:
		return Zero3
	case allOne && len(in) > 0:
		return One3
	}
	return X3
}

func or3(in []Value3) Value3 {
	anyOne, allZero := false, true
	for _, v := range in {
		if v == One3 {
			anyOne = true
		}
		if v != Zero3 {
			allZero = false
		}
	}
	switch {
	case anyOne:
		return One3
	case allZero && len(in) > 0:
		return Zero3
	}
	return X3
}

func xor3(in []Value3) Value3 {
	parity := Zero3
	for _, v := range in {
		if !v.IsAssigned() {
			return X3
		}
		if v == One3 {
			parity = parity.Not()
		}
	}
	if len(in) == 0 {
		return X3
	}
	return parity
}
