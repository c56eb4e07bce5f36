package implic

import "repro/internal/logic"

// This file holds the window snapshot: the closure of an FPTPG window, saved
// once, serves as the first closure of every one-fault search the window
// hands over (see the package comment).

// SaveClosure copies the Val words of the requirement cone into the snapshot
// plane.  The generator calls it right after a window's first Imply, before
// any decision, when bit level i holds the closure of the requirements and
// launch of the window's i-th fault alone.  The full-sweep reference saves
// nothing: its LoadClosure recomputes.
//
//atpgvet:noalloc
func (s *State) SaveClosure() {
	if s.fullSweep {
		return
	}
	for _, n := range s.coneNets {
		s.snap[n] = s.val[n]
	}
}

// LoadClosure is the first Imply of a freshly Reset state that holds, on
// every active level, the requirements and launch of the fault on bit level
// `level` of the last saved window, when that level is conflict-free there.
// Instead of re-deriving the closure it grows the requirement cone and
// copies the snapshot's level onto every active level of each cone net.  A
// conflict-free level's closure on its fault's cone is that fault's alone
// and does not depend on the order of derivation, so Val and the conflict
// mask (empty) are what Imply computes; the event queues stay empty, and the
// input assignments stay pending for the next ForwardSim.  The full-sweep
// reference recomputes the closure instead.
//
//atpgvet:noalloc
func (s *State) LoadClosure(level int) {
	if s.fullSweep {
		s.implyFull()
		return
	}
	s.growCone()
	s.constsSeeded = true // Imply would have evaluated them
	s.pendImply = s.pendImply[:0]
	for _, n := range s.coneNets {
		w := s.snap[n]
		if (w.Zero|w.One|w.Stable|w.Instable)>>uint(level)&1 == 0 {
			continue // X on the level: Val stays as Reset left it
		}
		s.note(pVal, n)
		s.val[n] = spread(w, level, s.active)
	}
}

// spread returns the word holding w's value at bit level i on every level of
// mask.
func spread(w logic.Word7, i int, mask logic.Mask) logic.Word7 {
	m := uint64(mask)
	return logic.Word7{
		Zero:     -(w.Zero >> uint(i) & 1) & m,
		One:      -(w.One >> uint(i) & 1) & m,
		Stable:   -(w.Stable >> uint(i) & 1) & m,
		Instable: -(w.Instable >> uint(i) & 1) & m,
	}
}
