package implic

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// backImply applies the unique backward implications of gate g: values that
// the fanin nets must take given the current value of the gate output (and
// of the other fanins).  It merges the derived requirements into Val and
// reports whether anything changed.
//
// Only *necessary* consequences are derived, so a conflict produced by the
// implication closure proves the requirements unsatisfiable (this is what
// makes the "conflict without optional assignments => redundant" conclusion
// of the paper sound).
//
// Output inversions (NAND/NOR/XNOR) are folded by reading the output planes
// swapped rather than materialising a complemented copy — complementing a
// seven-valued word swaps only the final-value planes, so stability
// information dualises correctly.
//
// A rule that needs "every other fanin" reads it from two aggregates taken
// once per call over the fanins' words, the levels where at least one
// (some) and at least two (many) fanins lack the wanted plane bit: fanin i's
// other fanins all have it where ^(many | some & has_i).  A call thus costs
// O(fanin), not O(fanin²), and a repeated fanin counts once per position.
func (s *State) backImply(g *circuit.Gate) bool {
	switch g.Kind {
	case logic.Buf:
		return s.mergeVal(g.Fanin[0], s.val[g.ID].SelectLevels(s.active))
	case logic.Not:
		return s.mergeVal(g.Fanin[0], s.val[g.ID].Not().SelectLevels(s.active))
	case logic.And:
		return s.backImplyAnd(g.ID, g.Fanin, false, false)
	case logic.Nand:
		return s.backImplyAnd(g.ID, g.Fanin, true, false)
	case logic.Or:
		return s.backImplyAnd(g.ID, g.Fanin, true, true)
	case logic.Nor:
		return s.backImplyAnd(g.ID, g.Fanin, false, true)
	case logic.Xor:
		return s.backImplyXor(g.ID, g.Fanin, false)
	case logic.Xnor:
		return s.backImplyXor(g.ID, g.Fanin, true)
	}
	return false
}

// gather copies the words of the fanins in plane p into the gather buffer.
func (s *State) gather(p []logic.Word7, fanin []circuit.NetID) []logic.Word7 {
	buf := s.faninBuf7[:len(fanin)]
	for i, f := range fanin {
		buf[i] = p[f]
	}
	return buf
}

// backImplyAnd derives the backward implications of an AND gate.  invert
// folds an output inversion (NAND, and OR/NOR via the dual) by swapping the
// output's final-value planes on the way in; dual applies the rules in the
// OR dual, complementing the fanin values on the way in and the derived
// requirements on the way out (the final-value planes of the requirement are
// swapped at write time).
//
// The fanin words are read once, before any merge.  The merges of one call
// never change what a later fanin's rule reads on a live level: rule family
// 1 writes only where the output is 1 and family 0 reads only where it is 0,
// and family 1 writes Stable only where the output is stable, which on a
// level where it also carries a transition is a frozen conflict.
func (s *State) backImplyAnd(out circuit.NetID, fanin []circuit.NetID, invert, dual bool) bool {
	v := s.val[out]
	z, on := v.Zero, v.One
	if invert {
		z, on = on, z
	}
	f1 := on &^ z
	f0 := z &^ on
	st, inst := v.Stable, v.Instable
	var in []logic.Word7
	if f1&inst != 0 || f0 != 0 {
		in = s.gather(s.val, fanin)
	}
	a := uint64(s.active)
	changed := false

	// Rule family 1: the output requires the non-controlling value (1).
	// Every input must then be 1; if the output is stable every input is
	// stable; if the output carries a transition and all other inputs are
	// stable, the remaining input must carry the transition.
	if f1 != 0 {
		var some, many uint64 // levels with ≥ 1 and ≥ 2 unstable fanins
		if f1&inst != 0 {
			for _, w := range in {
				many |= some &^ w.Stable
				some |= ^w.Stable
			}
		}
		for i, net := range fanin {
			var ri uint64
			if f1&inst != 0 {
				ri = f1 & inst &^ (many | some&in[i].Stable)
			}
			rz, ro := uint64(0), f1
			if dual {
				rz, ro = ro, rz
			}
			if s.mergeVal(net, logic.Word7{Zero: rz & a, One: ro & a, Stable: f1 & st & a, Instable: ri & a}) {
				changed = true
			}
		}
	}

	// Rule family 0: the output requires the controlling value (0).  If all
	// other inputs are known to be 1, the remaining input must be 0; it must
	// additionally be stable (resp. falling) if the output is required
	// stable (resp. carries a transition).
	if f0 != 0 {
		var some, many uint64 // levels with ≥ 1 and ≥ 2 fanins not 1
		for _, w := range in {
			many |= some &^ finalOne(w, dual)
			some |= ^finalOne(w, dual)
		}
		for i, net := range fanin {
			forced := f0 &^ (many | some&finalOne(in[i], dual))
			if forced == 0 {
				continue
			}
			rz, ro := forced, uint64(0)
			if dual {
				rz, ro = ro, rz
			}
			if s.mergeVal(net, logic.Word7{Zero: rz & a, One: ro & a, Stable: forced & st & a, Instable: forced & inst & a}) {
				changed = true
			}
		}
	}
	return changed
}

// finalOne returns the levels where w's final value is 1, or under the OR
// dual, where its complement's is: w's Zero plane.
func finalOne(w logic.Word7, dual bool) uint64 {
	if dual {
		return w.Zero
	}
	return w.One
}

// backImplyXor derives the backward implications of an XOR gate (invert
// folds an XNOR output inversion): when the output final value and all but
// one input final values are known, the remaining input's final value is
// forced to the parity-consistent value.  Stability is not implied backwards
// through XOR (the necessary conditions are not unique).
//
// As in backImplyAnd the fanin words are read once: a merge writes a fanin
// only where it was the one unknown input, and there every other fanin's
// rule already holds what that merge completes.
func (s *State) backImplyXor(out circuit.NetID, fanin []circuit.NetID, invert bool) bool {
	v := s.val[out]
	z, on := v.Zero, v.One
	if invert {
		z, on = on, z
	}
	f1 := on &^ z
	f0 := z &^ on
	known := f0 | f1
	if known == 0 {
		return false
	}
	in := s.gather(s.val, fanin)
	var some, many, parity uint64 // levels with ≥ 1 and ≥ 2 unknown fanins; the known ones' parity
	for _, w := range in {
		k := w.One ^ w.Zero
		many |= some &^ k
		some |= ^k
		parity ^= w.One &^ w.Zero
	}
	a := uint64(s.active)
	changed := false
	for i, net := range fanin {
		w := in[i]
		mask := known &^ (many | some&(w.One^w.Zero))
		if mask == 0 {
			continue
		}
		othersParity := parity ^ (w.One &^ w.Zero)
		wantOne := (f1 &^ othersParity) | (f0 & othersParity)
		if s.mergeVal(net, logic.Word7{Zero: mask &^ wantOne & a, One: mask & wantOne & a}) {
			changed = true
		}
	}
	return changed
}
