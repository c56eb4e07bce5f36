package implic

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// This file holds the event machinery of the incremental engine: levelized
// event queues and the event-driven implementations of Imply and ForwardSim.
//
// Each direction keeps one bucket per topological level plus a per-net
// queued flag.  A forward round scans the buckets from the inputs up; every
// processed gate re-evaluates over the current closure, and a change
// schedules its fanout (always at a higher level, so it is reached later in
// the same round) — exactly the Gauss-Seidel order of the full forward
// sweep, with the provably-unchanged evaluations skipped.  A backward round
// scans from the outputs down with the symmetric argument.  Rounds alternate
// until both queues drain or MaxSweeps rounds have run, mirroring the sweep
// bound of the full implementation.

// pushFwd schedules a gate for forward re-evaluation.  Like pushBwd and
// pushSim, it drops gates outside the requirement cone (see growCone).
func (s *State) pushFwd(net circuit.NetID) {
	if s.fwdQ[net] || !s.inCone[net] {
		return
	}
	g := s.c.Gate(net)
	if g.Kind == logic.Input {
		return
	}
	s.fwdQ[net] = true
	s.fwdB[g.Level] = append(s.fwdB[g.Level], net)
	s.fwdN++
}

// pushBwd schedules a gate for backward re-implication.
func (s *State) pushBwd(net circuit.NetID) {
	if s.bwdQ[net] || !s.inCone[net] {
		return
	}
	g := s.c.Gate(net)
	if g.Kind == logic.Input || len(g.Fanin) == 0 {
		return
	}
	s.bwdQ[net] = true
	s.bwdB[g.Level] = append(s.bwdB[g.Level], net)
	s.bwdN++
}

// pushSim schedules a gate for forward-simulation re-evaluation.
func (s *State) pushSim(net circuit.NetID) {
	if s.simQ[net] || !s.inCone[net] {
		return
	}
	g := s.c.Gate(net)
	if g.Kind == logic.Input {
		return
	}
	s.simQ[net] = true
	s.simB[g.Level] = append(s.simB[g.Level], net)
	s.simN++
}

// growCone marks the fanin cones of the requirement nets added since the
// last call, breadth-first over coneNets itself.  Nothing outside the cone is
// ever read: JustifiedMask and UnjustifiedWord read requirement nets, the
// backtrace descends their fanins and pattern extraction reads the PI plane.
// Nor does the outside feed the cone: no net there carries a requirement, so
// its values are derived forward from the inputs, and the backward
// implications of forward-derived values add nothing to the closure or its
// conflicts.  So the push functions drop events outside the cone, and Val
// and Sim are exact on the cone only.
//
// Dropped events leave a gate outside the cone stale, so a gate that joins
// the cone after propagation has run in this epoch is queued in all three
// directions.  On a fresh epoch nothing has been dropped yet and nothing is
// queued: the seeding that follows reaches the whole cone.
func (s *State) growCone() {
	if s.coneDone == len(s.coneRoots) {
		return
	}
	start := len(s.coneNets)
	for _, r := range s.coneRoots[s.coneDone:] {
		s.markCone(r)
	}
	s.coneDone = len(s.coneRoots)
	for i := start; i < len(s.coneNets); i++ {
		for _, f := range s.c.Gate(s.coneNets[i]).Fanin {
			s.markCone(f)
		}
	}
	if !s.constsSeeded && !s.simConstsSeeded {
		return // neither Imply nor ForwardSim has run in this epoch
	}
	for _, n := range s.coneNets[start:] {
		s.pushFwd(n)
		s.pushBwd(n)
		s.pushSim(n)
	}
}

// markCone adds net to the requirement cone.
func (s *State) markCone(net circuit.NetID) {
	if !s.inCone[net] {
		s.inCone[net] = true
		s.coneNets = append(s.coneNets, net)
	}
}

// clearQueue empties every bucket and resets the queued flags.
func clearQueue(buckets [][]circuit.NetID, queued []bool, count *int) {
	if *count == 0 {
		return
	}
	for lvl := range buckets {
		for _, n := range buckets[lvl] {
			queued[n] = false
		}
		buckets[lvl] = buckets[lvl][:0]
	}
	*count = 0
}

// seedImply merges every pending Req/PI change (anything that differs from
// the absorbed mirrors) into the closure, scheduling propagation events.
// Constant drivers are seeded once per Reset, since the full sweep evaluates
// them unconditionally.
func (s *State) seedImply() {
	if !s.constsSeeded {
		s.constsSeeded = true
		for _, cn := range s.consts {
			s.pushFwd(cn)
		}
	}
	for i := 0; i < len(s.pendImply); i++ {
		n := s.pendImply[i]
		req := s.loadFull(&s.req, n).SelectLevels(s.active)
		if req != s.loadFull(&s.impReq, n) {
			s.note(pImpReq, n)
			s.store(&s.impReq, n, &req)
			s.mergeVal(n, &req)
		}
		if s.c.IsInput(n) {
			pi := s.loadFull(&s.pi, n).SelectLevels(s.active)
			if pi != s.loadFull(&s.impPI, n) {
				s.note(pImpPI, n)
				s.store(&s.impPI, n, &pi)
				s.mergeVal(n, &pi)
			}
		}
	}
	s.pendImply = s.pendImply[:0]
}

// runImplyRounds alternates forward and backward event rounds until both
// queues drain or the sweep bound is hit.
func (s *State) runImplyRounds() {
	maxSweeps := s.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 8
	}
	for round := 0; round < maxSweeps && s.fwdN+s.bwdN > 0; round++ {
		// Forward: ascending levels.  Events raised while processing always
		// target strictly higher levels, so they are consumed in this same
		// round; events raised by the backward half land in the already
		// drained buckets and carry over to the next round.
		if s.fwdN > 0 {
			for lvl := 0; lvl < len(s.fwdB); lvl++ {
				b := s.fwdB[lvl]
				for i := 0; i < len(b); i++ {
					n := b[i]
					s.fwdQ[n] = false
					s.fwdN--
					s.evalGate(s.c.Gate(n), &s.val)
					s.mergeVal(n, &s.evalReg)
				}
				s.fwdB[lvl] = s.fwdB[lvl][:0]
			}
		}
		// Backward: descending levels.  backImply writes the fanin nets, so
		// new events may target the current level (a sibling fanout of the
		// written fanin) or lower levels; both are consumed in this round,
		// higher levels carry over — the order of the reverse sweep.
		if s.bwdN > 0 {
			for lvl := len(s.bwdB) - 1; lvl >= 0; lvl-- {
				for i := 0; i < len(s.bwdB[lvl]); i++ {
					n := s.bwdB[lvl][i]
					s.bwdQ[n] = false
					s.bwdN--
					s.backImply(s.c.Gate(n))
				}
				s.bwdB[lvl] = s.bwdB[lvl][:0]
			}
		}
	}
}

// runForwardSim is the event-driven ForwardSim: it reseeds the inputs whose
// assignment changed since the last call and re-evaluates exactly the gates
// whose fanin values change, in one ascending levelized pass (simulation is
// feed-forward, so one pass always suffices).
func (s *State) runForwardSim() {
	if !s.simConstsSeeded {
		s.simConstsSeeded = true
		for _, cn := range s.consts {
			s.pushSim(cn)
		}
	}
	for i := 0; i < len(s.pendSim); i++ {
		in := s.pendSim[i]
		pi := s.loadFull(&s.pi, in).SelectLevels(s.active)
		if pi == s.loadFull(&s.simPI, in) {
			continue
		}
		s.note(pSimPI, in)
		s.store(&s.simPI, in, &pi)
		s.setSim(in, &pi)
	}
	s.pendSim = s.pendSim[:0]
	if s.simN == 0 {
		return
	}
	for lvl := 0; lvl < len(s.simB); lvl++ {
		b := s.simB[lvl]
		for i := 0; i < len(b); i++ {
			n := b[i]
			s.simQ[n] = false
			s.simN--
			s.evalGate(s.c.Gate(n), &s.sim)
			s.setSim(n, &s.evalReg)
		}
		s.simB[lvl] = s.simB[lvl][:0]
	}
}
