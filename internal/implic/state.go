// Package implic implements the bit-parallel implication engine used by the
// test pattern generator.  All L bit levels of the plane vector (L = 64, 128,
// 256 or 512; see logic.MaxWordWidth) are processed simultaneously: a bit
// level corresponds to one target fault (fault-parallel generation) or to one
// pattern alternative (alternative-parallel generation).
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
// the pre-frame planes and conflict masks) or Reset revives the level.
// Without the freeze a dead level keeps ORing conflict encodings into Val
// and rescheduling the gates around it: on a c7552-class run of 1024 robust
// faults at L=64, 95 % of all Val merges added bits only to conflicted levels,
// and almost every closure truncated by MaxSweeps was such a dead-level storm
// (24,018 truncated closures before the freeze, 39 after).
//
// # Plane storage layout
//
// Each plane kind is stored structure-of-arrays: one []uint64 per bit plane
// (Zero/One/Stable/Instable), holding K consecutive words per net, where K is
// fixed at construction from the requested word width (NewStateWidth).  The
// four plane slices of a net's K-word window are contiguous, so the
// event-driven engine touches K adjacent words per plane per net and the
// word3/word7 kernels reduce to fixed-bound loops the compiler can unroll and
// auto-vectorize.  Operations run over the first kA ≤ K words, where kA
// covers the highest active level of the current Reset epoch: a K=8 state
// running a 64-level pass pays for one word, not eight.
//
// # Event-driven incremental operation
//
// The engine is incremental: Imply and ForwardSim only propagate from nets
// whose Req or PI actually changed since the previous call, along the
// precomputed fanout and fanin lists of the circuit, using levelized event
// queues (see event.go).  An assignment trail (Assign/Undo, see trail.go)
// lets the generator's backtracking restore the exact pre-decision state
// instead of recomputing the closure from scratch, and Reset clears only the
// planes that were written since the previous Reset.
//
// The incremental closure is bit-identical to the retained full-sweep
// implementation (the FullSweep debug option, kept as the test oracle)
// whenever the closure converges within MaxSweeps rounds — which it does on
// every practical netlist; the bound exists only to tame pathological
// circuits.  On bit levels whose closure contains a conflict the Val planes
// may differ between the two implementations (a level freezes at its first
// conflicting merge, and which merge lands first is order-dependent), but the
// conflict masks themselves, all conflict-free levels, the Sim plane and
// therefore every generator decision are identical; equiv_test.go checks
// this contract on randomized and ISCAS-85-class circuits, at K=1 and at
// wider widths, and freeze_test.go checks that freezing a level is invisible
// to every other level.
package implic

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// planes7 is the structure-of-arrays storage of one plane kind: each slice
// holds K consecutive words per net (net i occupies [i*K, (i+1)*K)).
type planes7 struct {
	zero     []uint64
	one      []uint64
	stable   []uint64
	instable []uint64
}

func newPlanes7(n, k int) planes7 {
	return planes7{
		zero:     make([]uint64, n*k),
		one:      make([]uint64, n*k),
		stable:   make([]uint64, n*k),
		instable: make([]uint64, n*k),
	}
}

// clearNet zeroes the first k words of net's window.
func (p *planes7) clearNet(off, k int) {
	for w := 0; w < k; w++ {
		p.zero[off+w] = 0
		p.one[off+w] = 0
		p.stable[off+w] = 0
		p.instable[off+w] = 0
	}
}

// State is the per-net value state of the implication engine.  A State is
// created once per circuit and reset cheaply between fault groups.  All
// plane access goes through the State methods (AddRequirement, AssignPI,
// Requirement, SimGet, ...) — the storage itself is unexported because direct
// writes would bypass the event scheduling, dirty tracking and assignment
// trail.
type State struct {
	c *circuit.Circuit

	// kcap is the number of plane words allocated per net (the width
	// capacity); ka ≤ kcap is the number of words covering the highest
	// active level of the current epoch — every plane loop runs over ka.
	kcap int
	ka   int

	// The plane kinds: requirements, input assignments, implication closure,
	// forward simulation, plus the absorbed mirrors of the incremental
	// engine (see the mirror comment below).
	req, pi, val, sim    planes7
	impReq, impPI, simPI planes7

	active      logic.Mask // bit levels in use
	conflict    logic.Mask // reported conflict mask (subset of active)
	valConflict logic.Mask // accumulated conflict bits of the Val plane

	// scratch registers and buffers reused across calls.  faninBuf7 is the
	// single-word gather buffer of the ka==1 fast path; the bX masks are
	// the working set of the generic backward-implication rules.  Only words
	// [0, ka) of any scratch are meaningful; the rest are stale.
	faninBuf   []logic.Word7V
	faninBuf7  []logic.Word7
	evalReg    logic.Word7V
	mergeReg   logic.Word7V
	bF1, bF0   logic.Mask
	bSt, bInst logic.Mask
	bOthers    logic.Mask

	// MaxSweeps bounds the number of forward/backward rounds of Imply.  The
	// implication closure usually converges in two or three rounds; the
	// bound only protects against pathological netlists.
	MaxSweeps int

	// FullSweep selects the original from-scratch implementation of Imply,
	// ForwardSim and Reset instead of the event-driven incremental one.  It
	// is the debug oracle the incremental engine is validated against and
	// must be set before Reset, not toggled mid-epoch.
	FullSweep bool

	// impReq/impPI mirror the Req and PI planes as last absorbed by the
	// implication closure; Imply seeds events from nets whose current plane
	// differs from its mirror.  simPI is the same mirror for ForwardSim.
	// (Storage is in the planes7 fields above.)

	// pendImply/pendSim list nets whose Req/PI may differ from the mirrors
	// (duplicates allowed); they are drained by Imply and ForwardSim.
	pendImply []circuit.NetID
	pendSim   []circuit.NetID

	// touched lists every net written since the last Reset, and dirty[n]
	// holds one bit per plane (1<<pReq, ...) written on net n since then, so
	// Reset clears only the planes a net actually wrote.
	touched []circuit.NetID
	dirty   []uint8

	// reqNetsW buckets the nets carrying a requirement by the plane word
	// their requirement bits live in (a net appears in every word bucket it
	// has bits in, usually exactly one), so the per-word scans of
	// UnjustifiedWord and JustifiedMask stay proportional to the word's own
	// requirement set rather than the whole group's — the scans cost the
	// same per fault at L=512 as at L=64.  Buckets are insertion-ordered and
	// truncated by length on Undo, so no scan of the whole circuit is ever
	// needed.
	reqNetsW [logic.MaxK][]circuit.NetID
	// unjustNets/unjustMiss are the scratch results of UnjustifiedWord.
	unjustNets []circuit.NetID
	unjustMiss []uint64

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

	// needResync is set when an assignment was removed outside the trail
	// (ClearPI): the monotone incremental closure cannot shrink, so the next
	// Imply recomputes from scratch and resynchronizes the bookkeeping.
	needResync bool

	// Assignment trail (see trail.go).
	frames   []frame
	trail    []trailEntry
	trailW   []uint64
	stamps   [numPlanes][]int64
	frameSeq int64
}

// NewState allocates an implication state for the circuit at the default
// 64-level word width.
func NewState(c *circuit.Circuit) *State { return NewStateWidth(c, logic.WordWidth) }

// NewStateWidth allocates an implication state whose plane vectors cover the
// given word width (rounded up to whole words, clamped to
// logic.MaxWordWidth).  The width is a capacity: Reset masks narrower than
// the capacity run over proportionally fewer plane words.
func NewStateWidth(c *circuit.Circuit, width int) *State {
	n := c.NumNets()
	k := logic.KForWidth(width)
	s := &State{
		c:         c,
		kcap:      k,
		ka:        k,
		req:       newPlanes7(n, k),
		pi:        newPlanes7(n, k),
		val:       newPlanes7(n, k),
		sim:       newPlanes7(n, k),
		impReq:    newPlanes7(n, k),
		impPI:     newPlanes7(n, k),
		simPI:     newPlanes7(n, k),
		MaxSweeps: 8,
		dirty:     make([]uint8, n),
		fwdB:      make([][]circuit.NetID, c.NumLevels()),
		bwdB:      make([][]circuit.NetID, c.NumLevels()),
		simB:      make([][]circuit.NetID, c.NumLevels()),
		fwdQ:      make([]bool, n),
		bwdQ:      make([]bool, n),
		simQ:      make([]bool, n),
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
	s.faninBuf = make([]logic.Word7V, maxFanin)
	s.faninBuf7 = make([]logic.Word7, maxFanin)
	for i := range s.stamps {
		s.stamps[i] = make([]int64, n)
	}
	return s
}

// Circuit returns the circuit the state operates on.
func (s *State) Circuit() *circuit.Circuit { return s.c }

// Width returns the word-width capacity of the state in bit levels.
func (s *State) Width() int { return s.kcap * logic.WordWidth }

// off returns the first plane-word index of net's window.
func (s *State) off(net circuit.NetID) int { return int(net) * s.kcap }

// Reset clears all planes and sets the active bit level mask (clamped to the
// state's width capacity).  Only the planes written since the previous Reset
// are cleared.
//
//atpgvet:noalloc
func (s *State) Reset(active logic.Mask) {
	kaOld := s.ka
	for _, n := range s.touched {
		off := s.off(n)
		for d := s.dirty[n]; d != 0; d &= d - 1 {
			s.planeByID(uint8(bits.TrailingZeros8(d))).clearNet(off, kaOld)
		}
		s.dirty[n] = 0
	}
	s.touched = s.touched[:0]
	clearQueue(s.fwdB, s.fwdQ, &s.fwdN)
	clearQueue(s.bwdB, s.bwdQ, &s.bwdN)
	clearQueue(s.simB, s.simQ, &s.simN)
	s.pendImply = s.pendImply[:0]
	s.pendSim = s.pendSim[:0]
	for w := range s.reqNetsW {
		s.reqNetsW[w] = s.reqNetsW[w][:0]
	}
	s.frames = s.frames[:0]
	s.trail = s.trail[:0]
	s.trailW = s.trailW[:0]
	for w := s.kcap; w < logic.MaxK; w++ {
		active[w] = 0
	}
	s.active = active
	ka := active.Words()
	if ka > s.kcap {
		ka = s.kcap
	}
	s.ka = ka
	s.conflict = logic.Mask{}
	s.valConflict = logic.Mask{}
	s.constsSeeded = false
	s.simConstsSeeded = false
	s.needResync = false
}

// Active returns the mask of bit levels in use.
func (s *State) Active() logic.Mask { return s.active }

// ConflictMask returns the accumulated conflict mask (restricted to the
// active levels).
func (s *State) ConflictMask() logic.Mask { return s.conflict.And(s.active) }

// AddRequirement merges a sensitization requirement for net at the levels
// selected by mask.
func (s *State) AddRequirement(net circuit.NetID, v logic.Value7, mask logic.Mask) {
	if v == logic.X7 {
		return
	}
	r := logic.FillWord7V(v, mask.And(s.active))
	ka, off := s.ka, s.off(net)
	changed := false
	var firstBits [logic.MaxK]bool
	for w := 0; w < ka; w++ {
		o := off + w
		z, on, st, in := s.req.zero[o], s.req.one[o], s.req.stable[o], s.req.instable[o]
		if r.Zero[w]&^z|r.One[w]&^on|r.Stable[w]&^st|r.Instable[w]&^in != 0 {
			changed = true
			firstBits[w] = z|on|st|in == 0
		}
	}
	if !changed {
		return
	}
	s.note(pReq, net)
	for w := 0; w < ka; w++ {
		o := off + w
		s.req.zero[o] |= r.Zero[w]
		s.req.one[o] |= r.One[w]
		s.req.stable[o] |= r.Stable[w]
		s.req.instable[o] |= r.Instable[w]
		if firstBits[w] {
			s.reqNetsW[w] = append(s.reqNetsW[w], net)
		}
	}
	s.pendImply = append(s.pendImply, net)
}

// AssignPI merges a primary input assignment for net at the levels selected
// by mask.  Assigning a non-input net is a programming error and is ignored.
func (s *State) AssignPI(net circuit.NetID, v logic.Value7, mask logic.Mask) {
	if v == logic.X7 || !s.c.IsInput(net) {
		return
	}
	r := logic.FillWord7V(v, mask.And(s.active))
	s.mergePI(net, &r)
}

// AssignPIWord merges an arbitrary per-level assignment vector for a primary
// input (used by APTPG to enumerate the 2^k combinations of k inputs).
func (s *State) AssignPIWord(net circuit.NetID, w logic.Word7V) {
	if !s.c.IsInput(net) {
		return
	}
	r := w.SelectLevels(s.active)
	s.mergePI(net, &r)
}

// mergePI merges a pre-masked assignment vector into the PI plane of an
// input and schedules the net for the next Imply and ForwardSim.
func (s *State) mergePI(net circuit.NetID, r *logic.Word7V) {
	ka, off := s.ka, s.off(net)
	changed := false
	for w := 0; w < ka; w++ {
		o := off + w
		if r.Zero[w]&^s.pi.zero[o]|r.One[w]&^s.pi.one[o]|r.Stable[w]&^s.pi.stable[o]|r.Instable[w]&^s.pi.instable[o] != 0 {
			changed = true
			break
		}
	}
	if !changed {
		return
	}
	s.note(pPI, net)
	for w := 0; w < ka; w++ {
		o := off + w
		s.pi.zero[o] |= r.Zero[w]
		s.pi.one[o] |= r.One[w]
		s.pi.stable[o] |= r.Stable[w]
		s.pi.instable[o] |= r.Instable[w]
	}
	s.pendImply = append(s.pendImply, net)
	s.pendSim = append(s.pendSim, net)
}

// ClearPI removes all primary input assignments (keeping requirements),
// restricted to the levels selected by mask.
//
// Removing assignments shrinks the closure, which the monotone incremental
// engine cannot express; the next Imply therefore falls back to one full
// from-scratch recomputation (Reset + re-assignment, or the Assign/Undo
// trail, are the cheap ways to retract assignments).
func (s *State) ClearPI(mask logic.Mask) {
	ka := s.ka
	for _, in := range s.c.Inputs() {
		off := s.off(in)
		cleared := false
		for w := 0; w < ka; w++ {
			o := off + w
			if (s.pi.zero[o]|s.pi.one[o]|s.pi.stable[o]|s.pi.instable[o])&mask[w] != 0 {
				cleared = true
				break
			}
		}
		if !cleared {
			continue
		}
		s.note(pPI, in)
		for w := 0; w < ka; w++ {
			o := off + w
			s.pi.zero[o] &^= mask[w]
			s.pi.one[o] &^= mask[w]
			s.pi.stable[o] &^= mask[w]
			s.pi.instable[o] &^= mask[w]
		}
		s.pendSim = append(s.pendSim, in)
		s.needResync = true
	}
}

// loadFull copies net's window of p into a full-width vector (upper words
// zero, so vectors from different epochs compare with ==).
func (s *State) loadFull(p *planes7, net circuit.NetID) logic.Word7V {
	var r logic.Word7V
	ka, off := s.ka, s.off(net)
	for w := 0; w < ka; w++ {
		o := off + w
		r.Zero[w] = p.zero[o]
		r.One[w] = p.one[o]
		r.Stable[w] = p.stable[o]
		r.Instable[w] = p.instable[o]
	}
	return r
}

// planeGet reads the value of one bit level of net's window of p.
func (s *State) planeGet(p *planes7, net circuit.NetID, level int) logic.Value7 {
	if level < 0 || level >= s.kcap*logic.WordWidth {
		return logic.X7
	}
	o := s.off(net) + level>>6
	b := uint64(1) << uint(level&63)
	return logic.Value7FromPlanes(p.zero[o]&b != 0, p.one[o]&b != 0, p.stable[o]&b != 0, p.instable[o]&b != 0)
}

// PIValue returns the current assignment vector of a primary input.
func (s *State) PIValue(net circuit.NetID) logic.Word7V { return s.loadFull(&s.pi, net) }

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
	if s.FullSweep {
		return s.implyFull()
	}
	if s.needResync {
		return s.resync()
	}
	s.seedImply()
	s.runImplyRounds()
	// Like the full sweep, Imply reports only conflicts present in the
	// closure; conflicts recorded with MarkConflict before this call are
	// discarded, so callers that track externally detected dead levels must
	// keep their own mask.
	s.conflict = s.valConflict.And(s.active)
	return s.ConflictMask()
}

// implyFull is the retained full-sweep implementation: it recomputes the
// closure from scratch with alternating whole-circuit forward and backward
// sweeps.  It is the oracle the event-driven path is validated against, and
// the recovery path after ClearPI.
func (s *State) implyFull() logic.Mask {
	order := s.c.TopoOrder()
	// Start with every level live: mergeVal freezes the levels in
	// valConflict, and a recomputation must not inherit them (ClearPI may
	// have revived a level).  The scan at the end recomputes the mask.
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

	maxSweeps := s.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 8
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
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
		if !changed {
			break
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

// resync recovers after ClearPI: one full-sweep recomputation, then the
// incremental bookkeeping (mirrors, event queues) is rebuilt to match.
func (s *State) resync() logic.Mask {
	conf := s.implyFull()
	clearQueue(s.fwdB, s.fwdQ, &s.fwdN)
	clearQueue(s.bwdB, s.bwdQ, &s.bwdN)
	s.pendImply = s.pendImply[:0]
	for _, n := range s.touched {
		req := s.loadFull(&s.req, n).SelectLevels(s.active)
		if req != s.loadFull(&s.impReq, n) {
			s.note(pImpReq, n)
			s.store(&s.impReq, n, &req)
		}
		if s.c.IsInput(n) {
			pi := s.loadFull(&s.pi, n).SelectLevels(s.active)
			if pi != s.loadFull(&s.impPI, n) {
				s.note(pImpPI, n)
				s.store(&s.impPI, n, &pi)
			}
		}
	}
	s.constsSeeded = true
	s.needResync = false
	return conf
}

// store overwrites net's window of p with r (words [0, ka)).
func (s *State) store(p *planes7, net circuit.NetID, r *logic.Word7V) {
	ka, off := s.ka, s.off(net)
	for w := 0; w < ka; w++ {
		o := off + w
		p.zero[o] = r.Zero[w]
		p.one[o] = r.One[w]
		p.stable[o] = r.Stable[w]
		p.instable[o] = r.Instable[w]
	}
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

// mergeVal merges a vector into Val[net], accumulates conflicts, and (in
// incremental mode) schedules the affected neighbors: the fanout gates
// re-evaluate forward, the net's own gate and its fanout gates rerun their
// backward implications.  It reports whether Val[net] changed.
//
// Conflicted levels are frozen (see the package comment): the incoming vector
// is masked with the live levels ^valConflict before the change test.  The
// mask is read before the merge, so the merge that first conflicts a level
// still lands (and is trailed).
func (s *State) mergeVal(net circuit.NetID, r *logic.Word7V) bool {
	switch s.ka {
	case 1:
		return s.mergeVal1(net, r.Zero[0], r.One[0], r.Stable[0], r.Instable[0])
	case 2:
		return s.mergeVal2(net,
			[2]uint64{r.Zero[0], r.Zero[1]}, [2]uint64{r.One[0], r.One[1]},
			[2]uint64{r.Stable[0], r.Stable[1]}, [2]uint64{r.Instable[0], r.Instable[1]})
	}
	ka, off := s.ka, s.off(net)
	changed := false
	for w := 0; w < ka; w++ {
		o := off + w
		if (r.Zero[w]&^s.val.zero[o]|r.One[w]&^s.val.one[o]|r.Stable[w]&^s.val.stable[o]|r.Instable[w]&^s.val.instable[o])&^s.valConflict[w] != 0 {
			changed = true
			break
		}
	}
	if !changed {
		return false
	}
	s.note(pVal, net)
	for w := 0; w < ka; w++ {
		o, live := off+w, ^s.valConflict[w]
		z := s.val.zero[o] | r.Zero[w]&live
		on := s.val.one[o] | r.One[w]&live
		st := s.val.stable[o] | r.Stable[w]&live
		in := s.val.instable[o] | r.Instable[w]&live
		s.val.zero[o], s.val.one[o], s.val.stable[o], s.val.instable[o] = z, on, st, in
		s.valConflict[w] |= (z & on) | (st & in)
	}
	if !s.FullSweep {
		s.pushBwd(net)
		for _, fo := range s.c.Gate(net).Fanout {
			s.pushFwd(fo)
			s.pushBwd(fo)
		}
	}
	return true
}

// mergeVal1 is the single-word (ka==1) specialisation of mergeVal: the active
// plane windows are single words, so the merge runs on scalars with no vector
// registers.  Wide states running a one-word epoch use it too, hence s.off.
func (s *State) mergeVal1(net circuit.NetID, rz, ro, rs, ri uint64) bool {
	o, live := s.off(net), ^s.valConflict[0]
	rz, ro, rs, ri = rz&live, ro&live, rs&live, ri&live
	if rz&^s.val.zero[o]|ro&^s.val.one[o]|rs&^s.val.stable[o]|ri&^s.val.instable[o] == 0 {
		return false
	}
	s.note(pVal, net)
	z := s.val.zero[o] | rz
	on := s.val.one[o] | ro
	st := s.val.stable[o] | rs
	in := s.val.instable[o] | ri
	s.val.zero[o], s.val.one[o], s.val.stable[o], s.val.instable[o] = z, on, st, in
	s.valConflict[0] |= (z & on) | (st & in)
	if !s.FullSweep {
		s.pushBwd(net)
		for _, fo := range s.c.Gate(net).Fanout {
			s.pushFwd(fo)
			s.pushBwd(fo)
		}
	}
	return true
}

// mergeVal2 is the two-word (ka==2) specialisation of mergeVal: the merge
// runs fully unrolled on scalar pairs, the L=128 hot path.
func (s *State) mergeVal2(net circuit.NetID, rz, ro, rs, ri [2]uint64) bool {
	o := s.off(net)
	l0, l1 := ^s.valConflict[0], ^s.valConflict[1]
	rz[0], ro[0], rs[0], ri[0] = rz[0]&l0, ro[0]&l0, rs[0]&l0, ri[0]&l0
	rz[1], ro[1], rs[1], ri[1] = rz[1]&l1, ro[1]&l1, rs[1]&l1, ri[1]&l1
	z0, on0, st0, in0 := s.val.zero[o], s.val.one[o], s.val.stable[o], s.val.instable[o]
	z1, on1, st1, in1 := s.val.zero[o+1], s.val.one[o+1], s.val.stable[o+1], s.val.instable[o+1]
	if rz[0]&^z0|ro[0]&^on0|rs[0]&^st0|ri[0]&^in0 == 0 &&
		rz[1]&^z1|ro[1]&^on1|rs[1]&^st1|ri[1]&^in1 == 0 {
		return false
	}
	s.note(pVal, net)
	z0, on0, st0, in0 = z0|rz[0], on0|ro[0], st0|rs[0], in0|ri[0]
	z1, on1, st1, in1 = z1|rz[1], on1|ro[1], st1|rs[1], in1|ri[1]
	s.val.zero[o], s.val.one[o], s.val.stable[o], s.val.instable[o] = z0, on0, st0, in0
	s.val.zero[o+1], s.val.one[o+1], s.val.stable[o+1], s.val.instable[o+1] = z1, on1, st1, in1
	s.valConflict[0] |= (z0 & on0) | (st0 & in0)
	s.valConflict[1] |= (z1 & on1) | (st1 & in1)
	if !s.FullSweep {
		s.pushBwd(net)
		for _, fo := range s.c.Gate(net).Fanout {
			s.pushFwd(fo)
			s.pushBwd(fo)
		}
	}
	return true
}

// evalGate evaluates gate g over the given plane storage into s.evalReg: the
// fanin windows are gathered into the scratch vector buffer and handed to the
// shared K-word kernel.  One- and two-word epochs instead sweep the scalar
// kernel per word through the compact Word7 gather buffer — a cache line of
// fanin values instead of Mask-strided Word7V writes.
func (s *State) evalGate(g *circuit.Gate, p *planes7) {
	if ka := s.ka; ka <= 2 {
		buf := s.faninBuf7[:len(g.Fanin)]
		for w := 0; w < ka; w++ {
			for i, f := range g.Fanin {
				o := s.off(f) + w
				buf[i] = logic.Word7{Zero: p.zero[o], One: p.one[o], Stable: p.stable[o], Instable: p.instable[o]}
			}
			r := logic.EvalGate7(g.Kind, buf)
			s.evalReg.Zero[w], s.evalReg.One[w] = r.Zero, r.One
			s.evalReg.Stable[w], s.evalReg.Instable[w] = r.Stable, r.Instable
		}
		return
	}
	ka := s.ka
	buf := s.faninBuf[:len(g.Fanin)]
	for i, f := range g.Fanin {
		off := s.off(f)
		for w := 0; w < ka; w++ {
			o := off + w
			buf[i].Zero[w] = p.zero[o]
			buf[i].One[w] = p.one[o]
			buf[i].Stable[w] = p.stable[o]
			buf[i].Instable[w] = p.instable[o]
		}
	}
	logic.EvalGate7VInto(&s.evalReg, g.Kind, ka, buf)
}

// ForwardSim updates Sim: a forward-only simulation of the current PI
// assignments, ignoring the requirements.  Sim tells the generator which
// values are actually produced by the inputs chosen so far, and therefore
// which requirements are justified.  Only the fanout cones of inputs whose
// assignment changed since the previous call are re-evaluated.
//
//atpgvet:noalloc
func (s *State) ForwardSim() {
	if s.FullSweep {
		s.forwardSimFull()
		return
	}
	s.runForwardSim()
}

// forwardSimFull is the retained from-scratch simulation (test oracle).
func (s *State) forwardSimFull() {
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

// setSim overwrites Sim[net] and (in incremental mode) schedules the fanout
// gates for re-evaluation.
func (s *State) setSim(net circuit.NetID, r *logic.Word7V) {
	ka, off := s.ka, s.off(net)
	same := true
	for w := 0; w < ka; w++ {
		o := off + w
		if s.sim.zero[o] != r.Zero[w] || s.sim.one[o] != r.One[w] ||
			s.sim.stable[o] != r.Stable[w] || s.sim.instable[o] != r.Instable[w] {
			same = false
			break
		}
	}
	if same {
		return
	}
	s.note(pSim, net)
	s.store(&s.sim, net, r)
	if !s.FullSweep {
		for _, fo := range s.c.Gate(net).Fanout {
			s.pushSim(fo)
		}
	}
}

// JustifiedMask returns the mask of active bit levels on which every
// requirement is covered by the forward simulation of the primary input
// assignments and no conflict has been recorded.  ForwardSim must have been
// called after the last assignment change.  Only nets carrying a
// requirement are inspected.
func (s *State) JustifiedMask() logic.Mask {
	mask := s.active.AndNot(s.conflict)
	for w := 0; w < s.ka; w++ {
		for _, id := range s.reqNetsW[w] {
			mask[w] &^= s.missWord(id, w)
			if mask[w] == 0 {
				break
			}
		}
	}
	return mask
}

// missWord returns the active levels of plane word w on which net's
// requirement is not covered by the forward simulation.
func (s *State) missWord(id circuit.NetID, w int) uint64 {
	o := s.off(id) + w
	return ((s.req.zero[o] &^ s.sim.zero[o]) |
		(s.req.one[o] &^ s.sim.one[o]) |
		(s.req.stable[o] &^ s.sim.stable[o]) |
		(s.req.instable[o] &^ s.sim.instable[o])) & s.active[w]
}

// UnjustifiedWord scans the requirement bucket of plane word w once and
// returns the nets whose requirement is not covered by the forward
// simulation on some active level of the word, each with its miss word: bit
// b of miss[i] is set when the requirement of nets[i] at bit level 64*w+b is
// uncovered.  One scan thus serves every level of the word.  The nets come
// in bucket (insertion) order, not topological order.  ForwardSim must be up
// to date.
//
// Both returned slices are scratch buffers owned by the State: they are
// overwritten by the next UnjustifiedWord call and must not be retained
// across calls (or across goroutines sharing the State).
func (s *State) UnjustifiedWord(w int) (nets []circuit.NetID, miss []uint64) {
	nets, miss = s.unjustNets[:0], s.unjustMiss[:0]
	for _, id := range s.reqNetsW[w] {
		if m := s.missWord(id, w); m != 0 {
			nets = append(nets, id)
			miss = append(miss, m)
		}
	}
	s.unjustNets, s.unjustMiss = nets, miss
	return nets, miss
}

// SimValue returns the forward-simulation vector of a net.
func (s *State) SimValue(net circuit.NetID) logic.Word7V { return s.loadFull(&s.sim, net) }

// ImpliedValue returns the implication-closure vector of a net.
func (s *State) ImpliedValue(net circuit.NetID) logic.Word7V { return s.loadFull(&s.val, net) }

// Requirement returns the requirement vector of a net.
func (s *State) Requirement(net circuit.NetID) logic.Word7V { return s.loadFull(&s.req, net) }

// SimGet returns the forward-simulation value of a net at one bit level
// without materialising the full vector (the backtrace hot path).
func (s *State) SimGet(net circuit.NetID, level int) logic.Value7 {
	return s.planeGet(&s.sim, net, level)
}

// ValGet returns the implication-closure value of a net at one bit level.
func (s *State) ValGet(net circuit.NetID, level int) logic.Value7 {
	return s.planeGet(&s.val, net, level)
}

// ReqGet returns the requirement of a net at one bit level.
func (s *State) ReqGet(net circuit.NetID, level int) logic.Value7 {
	return s.planeGet(&s.req, net, level)
}

// PIGet returns the assignment of a primary input at one bit level.
func (s *State) PIGet(net circuit.NetID, level int) logic.Value7 {
	return s.planeGet(&s.pi, net, level)
}

// MarkConflict records an externally detected conflict (for example a
// backtrace dead end) on the given levels.
func (s *State) MarkConflict(mask logic.Mask) {
	s.conflict = s.conflict.Or(mask.And(s.active))
}
