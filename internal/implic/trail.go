package implic

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// This file implements the assignment trail: Assign opens a frame, every
// subsequent plane write records the overwritten window once per frame, and
// Undo restores the exact pre-frame state.  The generator's backtracking
// undoes decisions instead of resetting and re-implying from scratch.

// Trailed plane identifiers.
const (
	pReq uint8 = iota
	pPI
	pVal
	pSim
	pImpReq
	pImpPI
	pSimPI
	numPlanes
)

// frame marks a trail position plus the scalar state restored by Undo.
type frame struct {
	seq             int64
	trailLen        int
	trailWLen       int
	reqNetsWLen     [logic.MaxK]int32
	coneLen         int32
	coneRootsLen    int32
	coneDone        int32
	conflict        logic.Mask
	valConflict     logic.Mask
	constsSeeded    bool
	simConstsSeeded bool
}

// trailEntry records the first overwrite of one plane window within a frame.
// The saved words live in the parallel trailW buffer: 4*ka words per entry,
// the four bit planes interleaved per word (Zero, One, Stable, Instable).
// ka is constant between Resets and Reset clears the trail, so entry sizes
// never mix within one trail.
type trailEntry struct {
	net   circuit.NetID
	plane uint8
}

func (s *State) planeByID(plane uint8) *planes7 {
	switch plane {
	case pReq:
		return &s.req
	case pPI:
		return &s.pi
	case pVal:
		return &s.val
	case pSim:
		return &s.sim
	case pImpReq:
		return &s.impReq
	case pImpPI:
		return &s.impPI
	default:
		return &s.simPI
	}
}

// note is the write barrier called immediately before every plane write: it
// marks the plane of the net dirty so Reset clears it and, when a trail frame
// is open, records the current window (only the first write per plane, net
// and frame is recorded — that is the value Undo restores).
func (s *State) note(plane uint8, net circuit.NetID) {
	if s.dirty[net] == 0 {
		s.touched = append(s.touched, net)
	}
	s.dirty[net] |= 1 << plane
	n := len(s.frames)
	if n == 0 {
		return
	}
	seq := s.frames[n-1].seq
	if s.stamps[plane][net] == seq {
		return
	}
	s.stamps[plane][net] = seq
	s.trail = append(s.trail, trailEntry{net: net, plane: plane})
	p := s.planeByID(plane)
	ka, off := s.ka, s.off(net)
	for w := 0; w < ka; w++ {
		o := off + w
		s.trailW = append(s.trailW, p.zero[o], p.one[o], p.stable[o], p.instable[o])
	}
}

// Assign opens a new trail frame.  Every plane change made afterwards —
// direct assignments as well as everything Imply and ForwardSim derive from
// them — is undone by the matching Undo.  Frames nest; the generator opens
// one per decision.
func (s *State) Assign() {
	s.frameSeq++
	f := frame{
		seq:             s.frameSeq,
		trailLen:        len(s.trail),
		trailWLen:       len(s.trailW),
		conflict:        s.conflict,
		valConflict:     s.valConflict,
		constsSeeded:    s.constsSeeded,
		simConstsSeeded: s.simConstsSeeded,
	}
	for w := 0; w < s.ka; w++ {
		f.reqNetsWLen[w] = int32(len(s.reqNetsW[w]))
	}
	f.coneLen, f.coneRootsLen, f.coneDone = int32(len(s.coneNets)), int32(len(s.coneRoots)), int32(s.coneDone)
	s.frames = append(s.frames, f)
}

// Depth returns the number of open trail frames.
func (s *State) Depth() int { return len(s.frames) }

// Undo restores the state at the matching Assign: all plane windows, the
// conflict masks, the requirement bookkeeping and the requirement cone.
// Nets whose restored Req/PI may disagree with what the closure or the
// simulation absorbed are re-queued, so the next Imply/ForwardSim reconciles
// them.  Undo without an open frame is a no-op.
//
//atpgvet:noalloc
func (s *State) Undo() {
	n := len(s.frames)
	if n == 0 {
		return
	}
	f := s.frames[n-1]
	ka := s.ka
	for i := len(s.trail) - 1; i >= f.trailLen; i-- {
		e := s.trail[i]
		p := s.planeByID(e.plane)
		wbase := len(s.trailW) - 4*ka
		off := s.off(e.net)
		for w := 0; w < ka; w++ {
			b := wbase + 4*w
			o := off + w
			p.zero[o] = s.trailW[b]
			p.one[o] = s.trailW[b+1]
			p.stable[o] = s.trailW[b+2]
			p.instable[o] = s.trailW[b+3]
		}
		s.trailW = s.trailW[:wbase]
		switch e.plane {
		case pReq, pImpReq, pImpPI:
			s.pendImply = append(s.pendImply, e.net)
		case pPI:
			s.pendImply = append(s.pendImply, e.net)
			s.pendSim = append(s.pendSim, e.net)
		case pSimPI:
			s.pendSim = append(s.pendSim, e.net)
		}
	}
	s.trail = s.trail[:f.trailLen]
	s.trailW = s.trailW[:f.trailWLen]
	for w := 0; w < ka; w++ {
		s.reqNetsW[w] = s.reqNetsW[w][:f.reqNetsWLen[w]]
	}
	// The cone is trailed like the requirement buckets: growth consumed
	// inside the frame is pending again, and its nets are unmarked, because
	// the plane restores above took back the values computed for them.
	for _, n := range s.coneNets[f.coneLen:] {
		s.inCone[n] = false
	}
	s.coneNets = s.coneNets[:f.coneLen]
	s.coneRoots = s.coneRoots[:f.coneRootsLen]
	s.coneDone = int(f.coneDone)
	s.conflict = f.conflict
	s.valConflict = f.valConflict
	s.constsSeeded = f.constsSeeded
	s.simConstsSeeded = f.simConstsSeeded
	s.frames = s.frames[:n-1]
}
