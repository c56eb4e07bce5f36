// Package logic implements the multi-valued logics and bit-parallel word
// types used by the bit-parallel path delay fault test pattern generator.
//
// Two logics are provided, following Henftling & Wittmann (DATE 1995):
//
//   - a three-valued logic {0, 1, X} for nonrobust test generation, encoded
//     in a 0-bit and a 1-bit per signal (Table 1 of the paper), and
//   - the seven-valued logic of Lin and Reddy for robust test generation,
//     encoded in four bit planes per signal (Table 2 of the paper).
//
// Both test classes run on the four-plane Word7: nonrobust requirements are
// final-only values, which constrain only the Zero and One planes, and those
// two planes hold the Table 1 bits of every level.  A Word7 stores L = 64
// logic values per signal, one per bit level.  Each plane is a uint64; bit i
// of every plane belongs to bit level i.  Gate evaluation, implication and
// conflict detection then operate on whole planes with word-wide boolean
// operations, so all 64 bit levels are processed by a handful of machine
// instructions.
package logic

import "fmt"

// Kind identifies the boolean function of a gate.  The zero value is Buf.
type Kind uint8

// Supported gate kinds.  Input marks a primary (or pseudo-primary) input and
// has no evaluation rule; Const0/Const1 are constant drivers used by some
// netlists after sequential-element removal.
const (
	Buf Kind = iota
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Input
	Const0
	Const1
	numKinds
)

var kindNames = [...]string{
	Buf:    "BUF",
	Not:    "NOT",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
	Input:  "INPUT",
	Const0: "CONST0",
	Const1: "CONST1",
}

// String returns the conventional upper-case name of the gate kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is one of the defined gate kinds.
func (k Kind) Valid() bool { return k < numKinds }

// ParseKind converts a gate name as found in ISCAS .bench files (case
// insensitive) into a Kind.  It accepts the aliases BUFF and DFF is not a
// combinational kind and is rejected here; the circuit package handles
// sequential elements before gates reach the logic level.
func ParseKind(s string) (Kind, error) {
	switch normalizeKindName(s) {
	case "BUF", "BUFF":
		return Buf, nil
	case "NOT", "INV":
		return Not, nil
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	case "INPUT":
		return Input, nil
	case "CONST0", "GND", "ZERO":
		return Const0, nil
	case "CONST1", "VDD", "ONE":
		return Const1, nil
	}
	return Buf, fmt.Errorf("logic: unknown gate kind %q", s)
}

func normalizeKindName(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c == ' ' || c == '\t' {
			continue
		}
		b = append(b, c)
	}
	return string(b)
}

// Inverting reports whether the gate kind logically inverts the parity of a
// transition travelling through it (NOT, NAND, NOR, XNOR).  XOR/XNOR parity
// additionally depends on the side input values; Inverting reports the
// inversion assuming the side inputs hold the gate's neutral sensitizing
// value, which is the convention used during path sensitization.
func (k Kind) Inverting() bool {
	switch k {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// HasControlling reports whether the gate kind has a controlling input value
// (AND/NAND: 0, OR/NOR: 1).  XOR-type gates and single-input gates have none.
func (k Kind) HasControlling() bool {
	switch k {
	case And, Nand, Or, Nor:
		return true
	}
	return false
}

// Controlling returns the controlling input value of the gate kind and true,
// or an undefined value and false if the kind has no controlling value.
func (k Kind) Controlling() (Value3, bool) {
	switch k {
	case And, Nand:
		return Zero3, true
	case Or, Nor:
		return One3, true
	}
	return X3, false
}

// NonControlling returns the non-controlling input value of the gate kind and
// true, or an undefined value and false if the kind has no controlling value.
func (k Kind) NonControlling() (Value3, bool) {
	switch k {
	case And, Nand:
		return One3, true
	case Or, Nor:
		return Zero3, true
	}
	return X3, false
}

// OutputInversion reports whether the output of the gate is the complement of
// the "core" monotone function (AND for NAND, OR for NOR, buffer for NOT).
func (k Kind) OutputInversion() bool {
	switch k {
	case Nand, Nor, Not, Xnor:
		return true
	}
	return false
}
