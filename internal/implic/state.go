// Package implic implements the bit-parallel implication engine used by the
// test pattern generator.  All L ≤ 64 bit levels of one machine word are
// processed simultaneously: a bit level corresponds to one target fault
// (fault-parallel generation) or to one pattern alternative
// (alternative-parallel generation).
//
// The engine keeps three value planes per net:
//
//   - Req: the sensitization requirements of the target faults;
//   - PI: the primary input assignments (launch transitions and decisions);
//   - Val: the implication closure of Req and PI, computed by alternating
//     forward and backward propagation until a fixpoint;
//
// plus Sim, a forward-only simulation of the PI assignments used to decide
// which requirements are already justified from the primary inputs.
// Conflicts (the illegal encodings of Tables 1 and 2) are tracked per bit
// level, so a conflict on one bit level never disturbs the others.
//
// # Conflicted levels are frozen
//
// As in the paper, a conflict on bit level j retires that fault or
// alternative while every other level carries on.  The closure therefore
// stops deriving on a level once it first conflicts: every merge into Val is
// masked with the live levels (see mergeVal), so a dead level writes no
// further Val bits, schedules no events and records no trail entries.  Its
// Val window stays as it was at the first conflict until Undo (which restores
// the pre-frame planes and conflict mask) or Reset revives the level.
// Without the freeze a dead level keeps ORing conflict encodings into Val
// and rescheduling the gates around it: on a c7552-class run of 1024 robust
// faults at L=64, 95 % of all Val merges added bits only to conflicted levels.
//
// # Plane storage layout
//
// Each plane kind is one []logic.Word7: a net's value on all 64 bit levels
// is the four bit planes (Zero/One/Stable/Instable) of one Word7, as in
// Table 2 of the paper, so a gate evaluation or a backward implication costs
// a few word operations per fanin.  Req, Val, Sim and the window snapshot
// (below) hold one Word7 per net, PI one per primary input, and the trail
// keeps one frame stamp per net: 136 bytes per net plus 32 per input.  With
// the event queues and the cone marks a state takes about 154 bytes per net
// on c7552 and 149 on the s38584 stand-in (TestNewStateBytes).
//
// # The window snapshot
//
// The generator opens every window of up to 64 faults, one per bit level,
// with one Imply over their requirements and launches; SaveClosure then
// copies that closure's Val words on the requirement cone into the snapshot
// plane.  A fault the window hands to the one-fault search (APTPG) starts
// from it: after Reset, its requirements and its launch on every level,
// LoadClosure grows the fault's cone and writes the snapshot's bit level of
// that fault onto every active level, instead of implying the fault again.
// Bit levels are independent, and a conflict-free level's closure on its
// fault's cone is unique, so the loaded state is exactly the implied one
// (snapshot_test.go checks every plane); the full-sweep reference keeps
// recomputing, which makes every loaded start in the generator's
// equivalence tests face an independent closure.
//
// # Event-driven incremental operation
//
// The engine is incremental: Imply and ForwardSim only propagate from the
// nets whose Req or PI changed since the previous call (the pending lists),
// along the precomputed fanout and fanin lists of the circuit, using
// levelized event queues (see event.go).  An assignment trail (Assign/Undo,
// see trail.go) lets the generator's backtracking restore the exact
// pre-decision state, pending lists included, instead of recomputing the
// closure from scratch, and Reset clears only the planes that were written
// since the previous Reset.
//
// Propagation is also cone-local: events stay inside the requirement cone,
// the transitive fanin of the nets that carry a requirement, which is the
// only region the generator reads (see growCone).  The cone grows as
// requirements arrive and is trailed like the planes.  It is what a
// single-fault search pays for: on c7552 one fault's cone averages 681 of
// 3,719 nets, and a framed decision in such a state (BenchmarkImplyOneFault)
// costs a fraction of whole-circuit propagation.
//
// The incremental closure is bit-identical to the full-sweep reference
// (NewFullSweepState, see sweep.go) on the requirement cone.  Outside the
// cone Val and Sim are unspecified; the full sweep computes them, and nothing
// reads them.  On bit levels whose closure contains a conflict the Val planes
// may differ between the two implementations (a level freezes at its first
// conflicting merge, and which merge lands first is order-dependent), but the
// conflict mask itself, JustifiedMask, UnjustifiedWord, the cone's Val on all
// conflict-free levels and its Sim plane, and therefore every generator
// decision, are identical.  equiv_test.go checks this contract on randomized
// and ISCAS-85-class circuits, backward_test.go pins the backward kernels to
// a per-fanin reference, and freeze_test.go checks that freezing a level is
// invisible to every other level.
package implic

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// State is the per-net value state of the implication engine.  A State is
// created once per circuit and reset cheaply between fault groups.  All
// plane access goes through the State methods (AddRequirement, AssignPI,
// Requirement, SimGet, ...) — the storage itself is unexported because direct
// writes would bypass the event scheduling, dirty tracking and assignment
// trail.
type State struct {
	c *circuit.Circuit

	// The plane kinds: requirements, implication closure and forward
	// simulation hold one Word7 per net, input assignments one per primary
	// input, indexed by circuit.InputPos.
	req, pi, val, sim []logic.Word7

	// snap holds the Val words of the requirement cone at the last
	// SaveClosure, the closure LoadClosure starts a one-fault search from.
	// Reset leaves it alone.
	snap []logic.Word7

	active      logic.Mask // bit levels in use
	valConflict uint64     // accumulated conflict bits of the Val plane

	// faninBuf7 is the gather buffer of evalGate and the backward kernels.
	faninBuf7 []logic.Word7

	// fullSweep marks the full-sweep reference (NewFullSweepState): Imply
	// and ForwardSim recompute from scratch instead of propagating events.
	fullSweep bool

	// pendImply lists the nets whose Req or PI changed since Imply last
	// absorbed them, pendSim the inputs whose PI changed since ForwardSim last
	// simulated them (duplicates allowed); Imply and ForwardSim drain them,
	// and Undo restores them as they were at the matching Assign.
	pendImply []circuit.NetID
	pendSim   []circuit.NetID

	// touched lists every net written since the last Reset, and the low
	// nibble of dirty[n] holds one bit per plane (1<<pReq, ...) written on
	// net n since then, so Reset clears only the planes a net actually wrote.
	// The high nibble is the trail's (see note).
	touched []circuit.NetID
	dirty   []uint8

	// reqNets lists the nets carrying a requirement in insertion order, so
	// the scans of UnjustifiedWord and JustifiedMask stay proportional to the
	// requirement set rather than the circuit.  It is truncated by length on
	// Undo.
	reqNets []circuit.NetID
	// unjustNets/unjustMiss are the scratch results of UnjustifiedWord.
	unjustNets []circuit.NetID
	unjustMiss []uint64

	// The requirement cone: the transitive fanin of every net carrying a
	// requirement, the only region whose Val and Sim anyone reads (see
	// growCone).  inCone marks its nets and coneNets lists them in marking
	// order; coneRoots lists the nets that gained their first requirement
	// bits, of which coneRoots[:coneDone] have had their fanin cones marked.
	// All three lists are truncated by length on Undo.
	inCone    []bool
	coneNets  []circuit.NetID
	coneRoots []circuit.NetID
	coneDone  int

	// Levelized event queues: one bucket per topological level, with a
	// per-net queued flag and a pending count per direction.
	fwdB, bwdB, simB [][]circuit.NetID
	fwdQ, bwdQ, simQ []bool
	fwdN, bwdN, simN int

	// consts lists the constant-driver nets; the full sweeps evaluate every
	// gate, so the incremental engine seeds them once per Reset.
	consts          []circuit.NetID
	constsSeeded    bool
	simConstsSeeded bool

	// Assignment trail (see trail.go); pendSaved holds the pending lists
	// of the open frames, and stamp[n] the frame whose trailed planes the
	// high nibble of dirty[n] lists.
	frames    []frame
	trail     []trailEntry
	pendSaved []circuit.NetID
	stamp     []int64
	frameSeq  int64
}

// NewState allocates an implication state for the circuit.  It covers one
// machine word: logic.WordWidth bit levels.
func NewState(c *circuit.Circuit) *State {
	n := c.NumNets()
	s := &State{
		c:        c,
		req:      make([]logic.Word7, n),
		pi:       make([]logic.Word7, len(c.Inputs())),
		val:      make([]logic.Word7, n),
		sim:      make([]logic.Word7, n),
		snap:     make([]logic.Word7, n),
		dirty:    make([]uint8, n),
		stamp:    make([]int64, n),
		fwdB:     make([][]circuit.NetID, c.NumLevels()),
		bwdB:     make([][]circuit.NetID, c.NumLevels()),
		simB:     make([][]circuit.NetID, c.NumLevels()),
		fwdQ:     make([]bool, n),
		bwdQ:     make([]bool, n),
		simQ:     make([]bool, n),
		inCone:   make([]bool, n),
		coneNets: make([]circuit.NetID, 0, n),
	}
	maxFanin := 1
	for _, g := range c.Gates() {
		if len(g.Fanin) > maxFanin {
			maxFanin = len(g.Fanin)
		}
		if g.Kind == logic.Const0 || g.Kind == logic.Const1 {
			s.consts = append(s.consts, g.ID)
		}
	}
	s.faninBuf7 = make([]logic.Word7, maxFanin)
	return s
}

// NewStateWidth returns NewState(c) for callers that size a state by word
// width: every state covers one machine word, and the levels of a wider
// width (logic.BitMask(i) for i ≥ logic.WordWidth) select nothing.
func NewStateWidth(c *circuit.Circuit, width int) *State { return NewState(c) }

// Circuit returns the circuit the state operates on.
func (s *State) Circuit() *circuit.Circuit { return s.c }

// Reset clears all planes and sets the active bit level mask.  Only the
// planes written since the previous Reset are cleared.
//
//atpgvet:noalloc
func (s *State) Reset(active logic.Mask) {
	for _, n := range s.touched {
		for d := s.dirty[n] & writtenBits; d != 0; d &= d - 1 {
			*s.word(uint8(bits.TrailingZeros8(d)), n) = logic.Word7{}
		}
		s.dirty[n] = 0
	}
	s.touched = s.touched[:0]
	clearQueue(s.fwdB, s.fwdQ, &s.fwdN)
	clearQueue(s.bwdB, s.bwdQ, &s.bwdN)
	clearQueue(s.simB, s.simQ, &s.simN)
	s.pendImply = s.pendImply[:0]
	s.pendSim = s.pendSim[:0]
	s.reqNets = s.reqNets[:0]
	for _, n := range s.coneNets {
		s.inCone[n] = false
	}
	s.coneNets = s.coneNets[:0]
	s.coneRoots = s.coneRoots[:0]
	s.coneDone = 0
	s.frames = s.frames[:0]
	s.trail = s.trail[:0]
	s.pendSaved = s.pendSaved[:0]
	s.active = active
	s.valConflict = 0
	s.constsSeeded = false
	s.simConstsSeeded = false
}

// Active returns the mask of bit levels in use.
func (s *State) Active() logic.Mask { return s.active }

// ConflictMask returns the active levels on which the implication closure
// holds a conflict.
func (s *State) ConflictMask() logic.Mask { return logic.Mask(s.valConflict) & s.active }

// adds reports whether r holds a bit that v lacks.
func adds(v, r logic.Word7) bool {
	return r.Zero&^v.Zero|r.One&^v.One|r.Stable&^v.Stable|r.Instable&^v.Instable != 0
}

// or returns the plane-wise union of v and r.
func or(v, r logic.Word7) logic.Word7 {
	return logic.Word7{Zero: v.Zero | r.Zero, One: v.One | r.One, Stable: v.Stable | r.Stable, Instable: v.Instable | r.Instable}
}

// AddRequirement merges a sensitization requirement for net at the levels
// selected by mask.
func (s *State) AddRequirement(net circuit.NetID, v logic.Value7, mask logic.Mask) {
	if v == logic.X7 {
		return
	}
	r, old := logic.FillWord7(v).SelectLevels(mask&s.active), s.req[net]
	if !adds(old, r) {
		return
	}
	if old == (logic.Word7{}) {
		// The net's first requirement bits: its fanin cone joins the
		// requirement cone at the next Imply or ForwardSim.
		s.coneRoots = append(s.coneRoots, net)
		s.reqNets = append(s.reqNets, net)
	}
	s.note(pReq, net)
	s.req[net] = or(old, r)
	s.pendImply = append(s.pendImply, net)
}

// AssignPI merges a primary input assignment for net at the levels selected
// by mask.  Assigning a non-input net is a programming error and is ignored.
func (s *State) AssignPI(net circuit.NetID, v logic.Value7, mask logic.Mask) {
	if v == logic.X7 {
		return
	}
	s.AssignPIWord(net, logic.FillWord7(v).SelectLevels(mask))
}

// AssignPIWord merges an arbitrary per-level assignment word for a primary
// input (used by APTPG to enumerate the 2^k combinations of k inputs) and
// schedules the net for the next Imply and ForwardSim.
func (s *State) AssignPIWord(net circuit.NetID, w logic.Word7) {
	p := s.c.InputPos(net)
	if p < 0 {
		return
	}
	r := w.SelectLevels(s.active)
	if !adds(s.pi[p], r) {
		return
	}
	s.note(pPI, net)
	s.pi[p] = or(s.pi[p], r)
	s.pendImply = append(s.pendImply, net)
	s.pendSim = append(s.pendSim, net)
}

// PIAt returns the current assignment word of the primary input at position
// pos of the circuit's Inputs (circuit.InputPos), the index of the per-input
// plane.
func (s *State) PIAt(pos int) logic.Word7 { return s.pi[pos] }

// PIValue returns the current assignment word of a primary input (X at every
// level for any other net).
func (s *State) PIValue(net circuit.NetID) logic.Word7 {
	if p := s.c.InputPos(net); p >= 0 {
		return s.pi[p]
	}
	return logic.Word7{}
}

// Imply updates the implication closure Val from Req and PI and returns the
// mask of bit levels on which a conflict was detected.  A conflict on a
// level means the requirements (plus the current input assignments) are
// unsatisfiable on that level.
//
// Only nets whose Req or PI changed since the previous Imply seed new
// propagation; unchanged regions of the circuit are not revisited.
//
//atpgvet:noalloc
func (s *State) Imply() logic.Mask {
	if s.fullSweep {
		return s.implyFull()
	}
	s.growCone()
	s.seedImply()
	s.runImplyRounds()
	return s.ConflictMask()
}

// mergeVal merges a word into Val[net], accumulates conflicts, and schedules
// the affected neighbors: the fanout gates re-evaluate forward, the net's
// own gate and its fanout gates rerun their backward implications.  It
// reports whether Val[net] changed.
//
// Conflicted levels are frozen (see the package comment): the incoming word
// is masked with the live levels ^valConflict before the change test.  The
// mask is read before the merge, so the merge that first conflicts a level
// still lands (and is trailed).
func (s *State) mergeVal(net circuit.NetID, r logic.Word7) bool {
	r = r.SelectLevels(logic.Mask(^s.valConflict))
	if !adds(s.val[net], r) {
		return false
	}
	s.note(pVal, net)
	v := or(s.val[net], r)
	s.val[net] = v
	s.valConflict |= (v.Zero & v.One) | (v.Stable & v.Instable)
	s.pushBwd(net)
	for _, fo := range s.c.Gate(net).Fanout {
		s.pushFwd(fo)
		s.pushBwd(fo)
	}
	return true
}

// evalGate evaluates gate g over the given plane through the compact Word7
// gather buffer.
func (s *State) evalGate(g *circuit.Gate, p []logic.Word7) logic.Word7 {
	return logic.EvalGate7(g.Kind, s.gather(p, g.Fanin))
}

// ForwardSim updates Sim: a forward-only simulation of the current PI
// assignments, ignoring the requirements.  Sim tells the generator which
// values are actually produced by the inputs chosen so far, and therefore
// which requirements are justified.  Only the fanout cones of inputs whose
// assignment changed since the previous call are re-evaluated.
//
//atpgvet:noalloc
func (s *State) ForwardSim() {
	if s.fullSweep {
		s.forwardSimFull()
		return
	}
	s.growCone()
	s.runForwardSim()
}

// setSim overwrites Sim[net] and schedules the fanout gates for
// re-evaluation.
func (s *State) setSim(net circuit.NetID, r logic.Word7) {
	if s.sim[net] == r {
		return
	}
	s.note(pSim, net)
	s.sim[net] = r
	for _, fo := range s.c.Gate(net).Fanout {
		s.pushSim(fo)
	}
}

// JustifiedMask returns the mask of the given levels that are active, carry
// no conflict, and on which every requirement is covered by the forward
// simulation of the primary input assignments.  ForwardSim must have been
// called after the last assignment change.  Only nets carrying a
// requirement are inspected, and the scan ends as soon as none of the levels
// is left: a caller passes the levels it still searches, not every active
// one.
func (s *State) JustifiedMask(levels logic.Mask) logic.Mask {
	mask := uint64(levels&s.active) &^ s.valConflict
	for _, id := range s.reqNets {
		mask &^= s.miss(id)
		if mask == 0 {
			break
		}
	}
	return logic.Mask(mask)
}

// miss returns the active levels on which net's requirement is not covered
// by the forward simulation.
func (s *State) miss(id circuit.NetID) uint64 {
	r, m := s.req[id], s.sim[id]
	return ((r.Zero &^ m.Zero) | (r.One &^ m.One) | (r.Stable &^ m.Stable) | (r.Instable &^ m.Instable)) &
		uint64(s.active)
}

// UnjustifiedWord scans the requirement nets once and returns those whose
// requirement is not covered by the forward simulation on some active level,
// each with its miss word: bit b of miss[i] is set when the requirement of
// nets[i] at bit level b is uncovered.  One scan thus serves every level.
// The nets come in insertion order, not topological order.  ForwardSim must
// be up to date.
//
// Both returned slices are scratch buffers owned by the State: they are
// overwritten by the next UnjustifiedWord call and must not be retained
// across calls (or across goroutines sharing the State).
func (s *State) UnjustifiedWord() (nets []circuit.NetID, miss []uint64) {
	nets, miss = s.unjustNets[:0], s.unjustMiss[:0]
	for _, id := range s.reqNets {
		if m := s.miss(id); m != 0 {
			nets = append(nets, id)
			miss = append(miss, m)
		}
	}
	s.unjustNets, s.unjustMiss = nets, miss
	return nets, miss
}

// Unjustified reports whether net's requirement at the given level is
// uncovered by the forward simulation, as UnjustifiedWord's miss word does;
// ForwardSim must be up to date.
func (s *State) Unjustified(net circuit.NetID, level int) bool {
	return logic.Mask(s.miss(net)).Bit(level)
}

// SimValue returns the forward-simulation word of a net.
func (s *State) SimValue(net circuit.NetID) logic.Word7 { return s.sim[net] }

// ImpliedValue returns the implication-closure word of a net.
func (s *State) ImpliedValue(net circuit.NetID) logic.Word7 { return s.val[net] }

// Requirement returns the requirement word of a net.
func (s *State) Requirement(net circuit.NetID) logic.Word7 { return s.req[net] }

// SimGet returns the forward-simulation value of a net at one bit level (X
// outside the word).
func (s *State) SimGet(net circuit.NetID, level int) logic.Value7 { return s.sim[net].Get(level) }

// ValGet returns the implication-closure value of a net at one bit level.
func (s *State) ValGet(net circuit.NetID, level int) logic.Value7 { return s.val[net].Get(level) }

// ReqGet returns the requirement of a net at one bit level.
func (s *State) ReqGet(net circuit.NetID, level int) logic.Value7 { return s.req[net].Get(level) }
