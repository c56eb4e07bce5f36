package implic

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// This file holds the full-sweep reference: Imply and ForwardSim computed
// from scratch with whole-circuit sweeps on every call, the paper's cost
// model.  It shares the State, its planes and its trail with the event-driven
// engine, so it backtracks with Assign/Undo like the engine does; it never
// grows a requirement cone, so every push of the event machinery returns
// early.  The equivalence tests validate the engine against it, and the
// grouping experiment runs the generator on it.

// NewFullSweepState allocates a state like NewStateWidth whose Imply and
// ForwardSim recompute the closure and the simulation of the whole circuit
// from scratch.
func NewFullSweepState(c *circuit.Circuit, width int) *State {
	s := NewStateWidth(c, width)
	s.fullSweep = true
	return s
}

// implyFull recomputes the closure from scratch with alternating
// whole-circuit forward and backward sweeps until a sweep changes nothing.
func (s *State) implyFull() logic.Mask {
	s.pendImply = s.pendImply[:0] // the sweep reads every window
	order := s.c.TopoOrder()
	// Start with every level live: mergeVal freezes the levels in
	// valConflict, and a recomputation must not inherit them.  The scan at
	// the end recomputes the mask.
	s.valConflict = logic.Mask{}
	// Initialise the closure with the requirements and input assignments.
	for i := 0; i < s.c.NumNets(); i++ {
		id := circuit.NetID(i)
		r := s.loadFull(&s.req, id).SelectLevels(s.active)
		s.setValReplace(id, &r)
	}
	for _, in := range s.c.Inputs() {
		r := s.loadFull(&s.pi, in).SelectLevels(s.active)
		s.mergeVal(in, &r)
	}

	for changed := true; changed; {
		changed = false
		// Forward sweep: gate outputs receive the evaluation of their fanin
		// values.
		for _, id := range order {
			g := s.c.Gate(id)
			if g.Kind == logic.Input {
				continue
			}
			s.evalGate(g, &s.val)
			if s.mergeVal(id, &s.evalReg) {
				changed = true
			}
		}
		// Backward sweep: unique implications from required output values to
		// the fanin nets.
		for i := len(order) - 1; i >= 0; i-- {
			g := s.c.Gate(order[i])
			if g.Kind == logic.Input || len(g.Fanin) == 0 {
				continue
			}
			if s.backImply(g) {
				changed = true
			}
		}
	}

	var conflict logic.Mask
	ka := s.ka
	for i := 0; i < s.c.NumNets(); i++ {
		off := s.off(circuit.NetID(i))
		for w := 0; w < ka; w++ {
			o := off + w
			conflict[w] |= (s.val.zero[o] & s.val.one[o]) | (s.val.stable[o] & s.val.instable[o])
		}
	}
	s.valConflict = conflict
	s.conflict = conflict.And(s.active)
	return s.ConflictMask()
}

// setValReplace overwrites Val[net] (full-sweep initialisation only).
func (s *State) setValReplace(net circuit.NetID, r *logic.Word7V) {
	ka, off := s.ka, s.off(net)
	same := true
	for w := 0; w < ka; w++ {
		o := off + w
		if s.val.zero[o] != r.Zero[w] || s.val.one[o] != r.One[w] ||
			s.val.stable[o] != r.Stable[w] || s.val.instable[o] != r.Instable[w] {
			same = false
			break
		}
	}
	if same {
		return
	}
	s.note(pVal, net)
	s.store(&s.val, net, r)
}

// forwardSimFull recomputes the simulation of the whole circuit from the
// input assignments.
func (s *State) forwardSimFull() {
	s.pendSim = s.pendSim[:0]
	var zero logic.Word7V
	for i := 0; i < s.c.NumNets(); i++ {
		s.setSim(circuit.NetID(i), &zero)
	}
	for _, in := range s.c.Inputs() {
		r := s.loadFull(&s.pi, in).SelectLevels(s.active)
		s.setSim(in, &r)
	}
	for _, id := range s.c.TopoOrder() {
		g := s.c.Gate(id)
		if g.Kind == logic.Input {
			continue
		}
		s.evalGate(g, &s.sim)
		s.setSim(id, &s.evalReg)
	}
}
