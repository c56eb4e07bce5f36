package implic

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// This file implements the assignment trail: Assign opens a frame, every
// subsequent plane write records the overwritten word once per frame, and
// Undo restores the exact pre-frame state, the pending lists included.  The
// generator's backtracking undoes decisions instead of resetting and
// re-implying from scratch.

// Trailed plane identifiers.
const (
	pReq uint8 = iota
	pPI
	pVal
	pSim
	numPlanes
)

// writtenBits selects the low nibble of dirty[n], the planes written on net
// n since Reset; the high nibble holds the planes trailed in frame stamp[n].
const writtenBits uint8 = 1<<numPlanes - 1

// frame marks a trail position plus the state restored by Undo.  The
// pending lists at Assign are saved in pendSaved from pendAt on: the
// pendImplyLen imply nets, then the simulation inputs.
type frame struct {
	seq             int64
	trailLen        int
	pendAt          int
	pendImplyLen    int32
	reqNetsLen      int32
	coneLen         int32
	coneRootsLen    int32
	coneDone        int32
	valConflict     uint64
	constsSeeded    bool
	simConstsSeeded bool
}

// trailEntry records the first overwrite of a net's word in one plane within
// a frame: the net, the plane and the word it held.
type trailEntry struct {
	net   circuit.NetID
	plane uint8
	old   logic.Word7
}

// word returns the storage of net's word in a trailed plane.
func (s *State) word(plane uint8, net circuit.NetID) *logic.Word7 {
	switch plane {
	case pReq:
		return &s.req[net]
	case pPI:
		return &s.pi[s.c.InputPos(net)]
	case pVal:
		return &s.val[net]
	}
	return &s.sim[net]
}

// note is the write barrier called immediately before every plane write: it
// marks the plane of the net dirty so Reset clears it and, when a trail frame
// is open, records the current word (only the first write per plane, net
// and frame is recorded — that is the value Undo restores).  One stamp per
// net names the frame whose trailed planes dirty's high nibble lists, and a
// write in another frame starts the list afresh.  After an inner Undo the
// outer frame may so trail a plane of a net twice; Undo replays the trail
// backwards, so the first entry still restores last.
func (s *State) note(plane uint8, net circuit.NetID) {
	d := s.dirty[net]
	if d == 0 {
		s.touched = append(s.touched, net)
	}
	d |= 1 << plane
	if n := len(s.frames); n > 0 {
		if seq := s.frames[n-1].seq; s.stamp[net] != seq {
			s.stamp[net] = seq
			d &= writtenBits
		}
		if t := uint8(1) << (numPlanes + plane); d&t == 0 {
			d |= t
			s.trail = append(s.trail, trailEntry{net: net, plane: plane, old: *s.word(plane, net)})
		}
	}
	s.dirty[net] = d
}

// Assign opens a new trail frame.  Every plane change made afterwards —
// direct assignments as well as everything Imply and ForwardSim derive from
// them — is undone by the matching Undo.  Frames nest; the generator opens
// one per decision.
func (s *State) Assign() {
	s.frameSeq++
	s.frames = append(s.frames, frame{
		seq:             s.frameSeq,
		trailLen:        len(s.trail),
		pendAt:          len(s.pendSaved),
		pendImplyLen:    int32(len(s.pendImply)),
		reqNetsLen:      int32(len(s.reqNets)),
		coneLen:         int32(len(s.coneNets)),
		coneRootsLen:    int32(len(s.coneRoots)),
		coneDone:        int32(s.coneDone),
		valConflict:     s.valConflict,
		constsSeeded:    s.constsSeeded,
		simConstsSeeded: s.simConstsSeeded,
	})
	s.pendSaved = append(s.pendSaved, s.pendImply...)
	s.pendSaved = append(s.pendSaved, s.pendSim...)
}

// Depth returns the number of open trail frames.
func (s *State) Depth() int { return len(s.frames) }

// Undo restores the state at the matching Assign: all planes, the conflict
// mask, the requirement bookkeeping, the requirement cone and the pending
// lists.  The restored Val and Sim hold what they held at Assign, so
// the nets pending then are the ones to reconcile; the trail cannot tell
// them, because a frame may absorb a change without a trailed write (a merge
// masked by a level frozen in the frame).  Undo without an open frame is a
// no-op.
//
//atpgvet:noalloc
func (s *State) Undo() {
	n := len(s.frames)
	if n == 0 {
		return
	}
	f := s.frames[n-1]
	for i := len(s.trail) - 1; i >= f.trailLen; i-- {
		e := &s.trail[i]
		*s.word(e.plane, e.net) = e.old
	}
	s.trail = s.trail[:f.trailLen]
	saved := s.pendSaved[f.pendAt:]
	s.pendImply = s.pendImply[:0]
	s.pendImply = append(s.pendImply, saved[:f.pendImplyLen]...)
	s.pendSim = s.pendSim[:0]
	s.pendSim = append(s.pendSim, saved[f.pendImplyLen:]...)
	s.pendSaved = s.pendSaved[:f.pendAt]
	s.reqNets = s.reqNets[:f.reqNetsLen]
	// The cone is trailed like the requirement list: growth consumed inside
	// the frame is pending again, and its nets are unmarked, because the
	// plane restores above took back the values computed for them.
	for _, n := range s.coneNets[f.coneLen:] {
		s.inCone[n] = false
	}
	s.coneNets = s.coneNets[:f.coneLen]
	s.coneRoots = s.coneRoots[:f.coneRootsLen]
	s.coneDone = int(f.coneDone)
	s.valConflict = f.valConflict
	s.constsSeeded = f.constsSeeded
	s.simConstsSeeded = f.simConstsSeeded
	s.frames = s.frames[:n-1]
}
