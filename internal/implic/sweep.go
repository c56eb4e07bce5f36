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

// NewFullSweepState allocates a state like NewState whose Imply and
// ForwardSim recompute the closure and the simulation of the whole circuit
// from scratch.
func NewFullSweepState(c *circuit.Circuit) *State {
	s := NewState(c)
	s.fullSweep = true
	return s
}

// implyFull recomputes the closure from scratch with alternating
// whole-circuit forward and backward sweeps until a sweep changes nothing.
func (s *State) implyFull() logic.Mask {
	s.pendImply = s.pendImply[:0] // the sweep reads every net
	order := s.c.TopoOrder()
	// Start with every level live: mergeVal freezes the levels in
	// valConflict, and a recomputation must not inherit them.  The scan at
	// the end recomputes the mask.
	s.valConflict = 0
	// Initialise the closure with the requirements and input assignments.
	for i := range s.val {
		id := circuit.NetID(i)
		if r := s.req[id].SelectLevels(s.active); s.val[id] != r {
			s.note(pVal, id)
			s.val[id] = r
		}
	}
	for i, in := range s.c.Inputs() {
		s.mergeVal(in, s.pi[i].SelectLevels(s.active))
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
			if s.mergeVal(id, s.evalGate(g, s.val)) {
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

	s.valConflict = 0
	for _, v := range s.val {
		s.valConflict |= (v.Zero & v.One) | (v.Stable & v.Instable)
	}
	return s.ConflictMask()
}

// forwardSimFull recomputes the simulation of the whole circuit from the
// input assignments.
func (s *State) forwardSimFull() {
	s.pendSim = s.pendSim[:0]
	for i := range s.sim {
		s.setSim(circuit.NetID(i), logic.Word7{})
	}
	for i, in := range s.c.Inputs() {
		s.setSim(in, s.pi[i].SelectLevels(s.active))
	}
	for _, id := range s.c.TopoOrder() {
		g := s.c.Gate(id)
		if g.Kind == logic.Input {
			continue
		}
		s.setSim(id, s.evalGate(g, s.sim))
	}
}
