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
func (s *State) backImply(g *circuit.Gate) bool {
	if s.ka == 1 {
		return s.backImply1(g)
	}
	return s.backImply2(g)
}

// backImply1 is the one-word (ka==1) kernel of backImply: the active plane
// windows are single words, so the rules below run on scalar uint64s with no
// Mask or Word7V registers.  It serves both one-word states and two-word
// states running a one-word epoch (e.g. APTPG's narrowed active mask), which
// is why every plane access goes through s.off.  Its algebra is, word for
// word, that of backImply2 and must be kept in lockstep with it
// (TestTwoWordKernelsMatchOneWord pins the two against each other).
func (s *State) backImply1(g *circuit.Gate) bool {
	a := s.active[0]
	switch g.Kind {
	case logic.Buf:
		o := s.off(g.ID)
		return s.mergeVal1(g.Fanin[0],
			s.val.zero[o]&a, s.val.one[o]&a, s.val.stable[o]&a, s.val.instable[o]&a)
	case logic.Not:
		o := s.off(g.ID)
		return s.mergeVal1(g.Fanin[0],
			s.val.one[o]&a, s.val.zero[o]&a, s.val.stable[o]&a, s.val.instable[o]&a)
	case logic.And:
		return s.backImplyAnd1(g.ID, g.Fanin, false, false)
	case logic.Nand:
		return s.backImplyAnd1(g.ID, g.Fanin, true, false)
	case logic.Or:
		return s.backImplyAnd1(g.ID, g.Fanin, true, true)
	case logic.Nor:
		return s.backImplyAnd1(g.ID, g.Fanin, false, true)
	case logic.Xor:
		return s.backImplyXor1(g.ID, g.Fanin, false)
	case logic.Xnor:
		return s.backImplyXor1(g.ID, g.Fanin, true)
	}
	return false
}

// backImplyAnd1 derives the backward implications of an AND gate.  invert
// folds an output inversion (NAND, and OR/NOR via the dual) by swapping the
// output's final-value planes on the way in; dual applies the rules in the
// OR dual, complementing the fanin values on the way in and the derived
// requirements on the way out (the final-value planes of the requirement are
// swapped at write time).
func (s *State) backImplyAnd1(out circuit.NetID, fanin []circuit.NetID, invert, dual bool) bool {
	o := s.off(out)
	z, on := s.val.zero[o], s.val.one[o]
	if invert {
		z, on = on, z
	}
	f1 := on &^ z
	f0 := z &^ on
	st, inst := s.val.stable[o], s.val.instable[o]
	a := s.active[0]
	changed := false

	// Rule family 1: the output requires the non-controlling value (1).
	// Every input must then be 1; if the output is stable every input is
	// stable; if the output carries a transition and all other inputs are
	// stable, the remaining input must carry the transition.
	if f1 != 0 {
		for i, net := range fanin {
			rOne := f1
			rStable := f1 & st
			rInst := uint64(0)
			if inst != 0 {
				othersStable := ^uint64(0)
				for j, other := range fanin {
					if j == i {
						continue
					}
					othersStable &= s.val.stable[s.off(other)]
				}
				ri := f1 & inst & othersStable
				rInst = ri
				rOne |= ri
			}
			rz, ro := uint64(0), rOne
			if dual {
				rz, ro = ro, rz
			}
			if s.mergeVal1(net, rz&a, ro&a, rStable&a, rInst&a) {
				changed = true
			}
		}
	}

	// Rule family 0: the output requires the controlling value (0).  If all
	// other inputs are known to be 1, the remaining input must be 0; it must
	// additionally be stable (resp. falling) if the output is required
	// stable (resp. carries a transition).
	if f0 != 0 {
		// Under the dual, "the other input is 1" reads the fanin's
		// complemented final value, i.e. its Zero plane.
		ones := s.val.one
		if dual {
			ones = s.val.zero
		}
		for i, net := range fanin {
			othersOne := ^uint64(0)
			for j, other := range fanin {
				if j == i {
					continue
				}
				othersOne &= ones[s.off(other)]
			}
			forced := f0 & othersOne
			if forced == 0 {
				continue
			}
			rz, ro := forced, uint64(0)
			if dual {
				rz, ro = ro, rz
			}
			if s.mergeVal1(net, rz&a, ro&a, forced&st&a, forced&inst&a) {
				changed = true
			}
		}
	}
	return changed
}

// backImplyXor1 derives the backward implications of an XOR gate (invert
// folds an XNOR output inversion): when the output final value and all but
// one input final values are known, the remaining input's final value is
// forced to the parity-consistent value.  Stability is not implied backwards
// through XOR (the necessary conditions are not unique).
func (s *State) backImplyXor1(out circuit.NetID, fanin []circuit.NetID, invert bool) bool {
	o := s.off(out)
	z, on := s.val.zero[o], s.val.one[o]
	if invert {
		z, on = on, z
	}
	f1 := on &^ z
	f0 := z &^ on
	known := f0 | f1
	if known == 0 {
		return false
	}
	a := s.active[0]
	changed := false
	for i, net := range fanin {
		othersKnown := ^uint64(0)
		othersParity := uint64(0)
		for j, other := range fanin {
			if j == i {
				continue
			}
			oo := s.off(other)
			one := s.val.one[oo] &^ s.val.zero[oo]
			zero := s.val.zero[oo] &^ s.val.one[oo]
			othersKnown &= one | zero
			othersParity ^= one
		}
		mask := known & othersKnown
		if mask == 0 {
			continue
		}
		wantOne := (f1 &^ othersParity) | (f0 & othersParity)
		if s.mergeVal1(net, (mask&^wantOne)&a, (mask&wantOne)&a, 0, 0) {
			changed = true
		}
	}
	return changed
}

// backImply2 is the two-word (ka==2) kernel of backImply, i.e. the L=128 hot
// path: the constant loop bound lets the compiler unroll the plane windows
// into registers.  It must stay in algebraic lockstep with backImply1.
func (s *State) backImply2(g *circuit.Gate) bool {
	a := [2]uint64{s.active[0], s.active[1]}
	switch g.Kind {
	case logic.Buf:
		o := s.off(g.ID)
		return s.mergeVal2(g.Fanin[0],
			[2]uint64{s.val.zero[o] & a[0], s.val.zero[o+1] & a[1]},
			[2]uint64{s.val.one[o] & a[0], s.val.one[o+1] & a[1]},
			[2]uint64{s.val.stable[o] & a[0], s.val.stable[o+1] & a[1]},
			[2]uint64{s.val.instable[o] & a[0], s.val.instable[o+1] & a[1]})
	case logic.Not:
		o := s.off(g.ID)
		return s.mergeVal2(g.Fanin[0],
			[2]uint64{s.val.one[o] & a[0], s.val.one[o+1] & a[1]},
			[2]uint64{s.val.zero[o] & a[0], s.val.zero[o+1] & a[1]},
			[2]uint64{s.val.stable[o] & a[0], s.val.stable[o+1] & a[1]},
			[2]uint64{s.val.instable[o] & a[0], s.val.instable[o+1] & a[1]})
	case logic.And:
		return s.backImplyAnd2(g.ID, g.Fanin, false, false)
	case logic.Nand:
		return s.backImplyAnd2(g.ID, g.Fanin, true, false)
	case logic.Or:
		return s.backImplyAnd2(g.ID, g.Fanin, true, true)
	case logic.Nor:
		return s.backImplyAnd2(g.ID, g.Fanin, false, true)
	case logic.Xor:
		return s.backImplyXor2(g.ID, g.Fanin, false)
	case logic.Xnor:
		return s.backImplyXor2(g.ID, g.Fanin, true)
	}
	return false
}

// backImplyAnd2 is the two-word backImplyAnd1.
func (s *State) backImplyAnd2(out circuit.NetID, fanin []circuit.NetID, invert, dual bool) bool {
	o := s.off(out)
	z := [2]uint64{s.val.zero[o], s.val.zero[o+1]}
	on := [2]uint64{s.val.one[o], s.val.one[o+1]}
	if invert {
		z, on = on, z
	}
	var f1, f0, st, inst [2]uint64
	for w := 0; w < 2; w++ {
		f1[w] = on[w] &^ z[w]
		f0[w] = z[w] &^ on[w]
		st[w] = s.val.stable[o+w]
		inst[w] = s.val.instable[o+w]
	}
	a := [2]uint64{s.active[0], s.active[1]}
	changed := false

	if f1[0]|f1[1] != 0 {
		anyInst := inst[0]|inst[1] != 0
		for i, net := range fanin {
			var others [2]uint64
			if anyInst {
				others = [2]uint64{^uint64(0), ^uint64(0)}
				for j, other := range fanin {
					if j == i {
						continue
					}
					oo := s.off(other)
					others[0] &= s.val.stable[oo]
					others[1] &= s.val.stable[oo+1]
				}
			}
			var rz, ro, rs, ri [2]uint64
			for w := 0; w < 2; w++ {
				r := uint64(0)
				if anyInst {
					r = f1[w] & inst[w] & others[w]
				}
				one := f1[w] | r
				zero := uint64(0)
				if dual {
					zero, one = one, zero
				}
				rz[w] = zero & a[w]
				ro[w] = one & a[w]
				rs[w] = f1[w] & st[w] & a[w]
				ri[w] = r & a[w]
			}
			if s.mergeVal2(net, rz, ro, rs, ri) {
				changed = true
			}
		}
	}

	if f0[0]|f0[1] != 0 {
		// Under the dual, "the other input is 1" reads the fanin's
		// complemented final value, i.e. its Zero plane.
		ones := s.val.one
		if dual {
			ones = s.val.zero
		}
		for i, net := range fanin {
			others := [2]uint64{^uint64(0), ^uint64(0)}
			for j, other := range fanin {
				if j == i {
					continue
				}
				oo := s.off(other)
				others[0] &= ones[oo]
				others[1] &= ones[oo+1]
			}
			forced := [2]uint64{f0[0] & others[0], f0[1] & others[1]}
			if forced[0]|forced[1] == 0 {
				continue
			}
			var rz, ro, rs, ri [2]uint64
			for w := 0; w < 2; w++ {
				zero, one := forced[w], uint64(0)
				if dual {
					zero, one = one, zero
				}
				rz[w] = zero & a[w]
				ro[w] = one & a[w]
				rs[w] = forced[w] & st[w] & a[w]
				ri[w] = forced[w] & inst[w] & a[w]
			}
			if s.mergeVal2(net, rz, ro, rs, ri) {
				changed = true
			}
		}
	}
	return changed
}

// backImplyXor2 is the two-word backImplyXor1.
func (s *State) backImplyXor2(out circuit.NetID, fanin []circuit.NetID, invert bool) bool {
	o := s.off(out)
	z := [2]uint64{s.val.zero[o], s.val.zero[o+1]}
	on := [2]uint64{s.val.one[o], s.val.one[o+1]}
	if invert {
		z, on = on, z
	}
	var f1, f0, known [2]uint64
	for w := 0; w < 2; w++ {
		f1[w] = on[w] &^ z[w]
		f0[w] = z[w] &^ on[w]
		known[w] = f0[w] | f1[w]
	}
	if known[0]|known[1] == 0 {
		return false
	}
	a := [2]uint64{s.active[0], s.active[1]}
	changed := false
	for i, net := range fanin {
		othersKnown := [2]uint64{^uint64(0), ^uint64(0)}
		var othersParity [2]uint64
		for j, other := range fanin {
			if j == i {
				continue
			}
			oo := s.off(other)
			for w := 0; w < 2; w++ {
				one := s.val.one[oo+w] &^ s.val.zero[oo+w]
				zero := s.val.zero[oo+w] &^ s.val.one[oo+w]
				othersKnown[w] &= one | zero
				othersParity[w] ^= one
			}
		}
		var rz, ro [2]uint64
		anyMask := false
		for w := 0; w < 2; w++ {
			mask := known[w] & othersKnown[w]
			wantOne := (f1[w] &^ othersParity[w]) | (f0[w] & othersParity[w])
			rz[w] = (mask &^ wantOne) & a[w]
			ro[w] = (mask & wantOne) & a[w]
			anyMask = anyMask || mask != 0
		}
		if !anyMask {
			continue
		}
		if s.mergeVal2(net, rz, ro, [2]uint64{}, [2]uint64{}) {
			changed = true
		}
	}
	return changed
}
