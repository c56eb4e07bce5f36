// Package bench provides the benchmark circuits used by the experiments:
// a few small embedded reference circuits (the ISCAS85 c17 netlist, a
// reconstruction of the paper's running example, parametric adders, parity
// and multiplexer trees) and deterministic synthetic generators that
// approximate the structural profile of the ISCAS85 and ISCAS89 benchmark
// suites referenced by the paper.
//
// The original ISCAS netlists are not distributed with this repository; the
// synthetic circuits substitute for them (see Profile and Synthesize).  A
// .bench parser is available in the circuit package, so the real netlists
// can be used unchanged when they are available.
package bench

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// C17 returns the ISCAS85 c17 benchmark, the only original ISCAS netlist
// small enough to embed verbatim.
func C17() *circuit.Circuit {
	b := circuit.NewBuilder("c17")
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
	return mustBuild(b)
}

// PaperExample returns a reconstruction of the example circuit of Figures 1
// and 2 of the paper.  The exact netlist is not given in the paper; this
// circuit reproduces the signal names and the path structure used in the
// figures (paths a-p-x, b-p-x, b-q-s-x, c-r-s-x and c-r-s-y all exist), so
// the FPTPG and APTPG walk-throughs of Section 3 can be exercised on it.
func PaperExample() *circuit.Circuit {
	b := circuit.NewBuilder("paper-example")
	a := b.Input("a")
	bb := b.Input("b")
	c := b.Input("c")
	d := b.Input("d")
	e := b.Input("e")
	p := b.Gate("p", logic.And, a, bb)
	q := b.Gate("q", logic.Nand, bb, c)
	r := b.Gate("r", logic.Nand, c, d)
	s := b.Gate("s", logic.Nand, q, r)
	t := b.Gate("t", logic.And, d, e)
	x := b.Gate("x", logic.Or, p, s)
	y := b.Gate("y", logic.Nor, s, t)
	b.Output(x)
	b.Output(y)
	return mustBuild(b)
}

// Adder returns an n-bit ripple-carry adder with inputs a0..a(n-1),
// b0..b(n-1) and cin, and outputs s0..s(n-1) and cout.  Ripple-carry adders
// have long, well-understood critical paths and are a natural path delay
// fault target.
func Adder(n int) *circuit.Circuit {
	if n < 1 {
		n = 1
	}
	b := circuit.NewBuilder(fmt.Sprintf("adder%d", n))
	as := make([]circuit.NetID, n)
	bs := make([]circuit.NetID, n)
	for i := 0; i < n; i++ {
		as[i] = b.Input(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		bs[i] = b.Input(fmt.Sprintf("b%d", i))
	}
	carry := b.Input("cin")
	for i := 0; i < n; i++ {
		axb := b.Gate(fmt.Sprintf("axb%d", i), logic.Xor, as[i], bs[i])
		sum := b.Gate(fmt.Sprintf("s%d", i), logic.Xor, axb, carry)
		and1 := b.Gate(fmt.Sprintf("g%d", i), logic.And, as[i], bs[i])
		and2 := b.Gate(fmt.Sprintf("pg%d", i), logic.And, axb, carry)
		carry = b.Gate(fmt.Sprintf("c%d", i+1), logic.Or, and1, and2)
		b.Output(sum)
	}
	b.Output(carry)
	return mustBuild(b)
}

// ParityTree returns an n-input XOR tree computing the parity of its inputs.
// Every input-to-output connection is a distinct structural path and every
// path is robustly testable, which makes the circuit a convenient sanity
// check for the generator.
func ParityTree(n int) *circuit.Circuit {
	if n < 2 {
		n = 2
	}
	b := circuit.NewBuilder(fmt.Sprintf("parity%d", n))
	level := make([]circuit.NetID, n)
	for i := 0; i < n; i++ {
		level[i] = b.Input(fmt.Sprintf("i%d", i))
	}
	stage := 0
	for len(level) > 1 {
		var next []circuit.NetID
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, b.Gate(fmt.Sprintf("x%d_%d", stage, i/2), logic.Xor, level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		stage++
	}
	b.Output(level[0])
	return mustBuild(b)
}

// MuxTree returns a 2^depth-to-1 multiplexer tree built from AND/OR/NOT
// gates, with data inputs d0..d(2^depth-1) and select inputs s0..s(depth-1).
// Multiplexer trees have heavy reconvergent fan-out on the select lines and
// contain many nonrobustly-but-not-robustly testable paths.
func MuxTree(depth int) *circuit.Circuit {
	if depth < 1 {
		depth = 1
	}
	b := circuit.NewBuilder(fmt.Sprintf("mux%d", depth))
	n := 1 << uint(depth)
	data := make([]circuit.NetID, n)
	for i := 0; i < n; i++ {
		data[i] = b.Input(fmt.Sprintf("d%d", i))
	}
	sels := make([]circuit.NetID, depth)
	selInv := make([]circuit.NetID, depth)
	for i := 0; i < depth; i++ {
		sels[i] = b.Input(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < depth; i++ {
		selInv[i] = b.Gate(fmt.Sprintf("ns%d", i), logic.Not, sels[i])
	}
	level := data
	for stage := 0; stage < depth; stage++ {
		var next []circuit.NetID
		for i := 0; i+1 < len(level); i += 2 {
			lo := b.Gate(fmt.Sprintf("lo%d_%d", stage, i/2), logic.And, level[i], selInv[stage])
			hi := b.Gate(fmt.Sprintf("hi%d_%d", stage, i/2), logic.And, level[i+1], sels[stage])
			next = append(next, b.Gate(fmt.Sprintf("m%d_%d", stage, i/2), logic.Or, lo, hi))
		}
		level = next
	}
	b.Output(level[0])
	return mustBuild(b)
}

// Comparator returns an n-bit equality comparator: output eq is 1 iff
// a == b.  It mixes XNOR gates with a wide AND-reduction tree.
func Comparator(n int) *circuit.Circuit {
	if n < 1 {
		n = 1
	}
	b := circuit.NewBuilder(fmt.Sprintf("cmp%d", n))
	bits := make([]circuit.NetID, n)
	for i := 0; i < n; i++ {
		a := b.Input(fmt.Sprintf("a%d", i))
		bi := b.Input(fmt.Sprintf("b%d", i))
		bits[i] = b.Gate(fmt.Sprintf("eq%d", i), logic.Xnor, a, bi)
	}
	for len(bits) > 1 {
		var next []circuit.NetID
		for i := 0; i+1 < len(bits); i += 2 {
			next = append(next, b.Gate(fmt.Sprintf("and%d_%d", len(bits), i/2), logic.And, bits[i], bits[i+1]))
		}
		if len(bits)%2 == 1 {
			next = append(next, bits[len(bits)-1])
		}
		bits = next
	}
	b.Output(bits[0])
	return mustBuild(b)
}

// RedundantExample returns a small circuit that contains structurally
// present but robustly unsensitizable (redundant) paths, used to exercise
// redundancy identification.  Gate "g2" computes AND(a, NOT(a), b) folded
// through two gates, so every path through "g2" is robustly redundant (some
// remain nonrobustly testable through static hazards on g2).
func RedundantExample() *circuit.Circuit {
	b := circuit.NewBuilder("redundant-example")
	a := b.Input("a")
	bb := b.Input("b")
	c := b.Input("c")
	na := b.Gate("na", logic.Not, a)
	g1 := b.Gate("g1", logic.And, a, bb)
	g2 := b.Gate("g2", logic.And, na, g1) // a AND NOT a AND b == 0
	z := b.Gate("z", logic.Or, g2, c)
	b.Output(z)
	return mustBuild(b)
}

func mustBuild(b *circuit.Builder) *circuit.Circuit {
	c, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("bench: building embedded circuit: %v", err))
	}
	return c
}
