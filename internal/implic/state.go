// Package implic implements the bit-parallel implication engine used by the
// test pattern generator.  All L bit levels of the plane vector (L up to 128;
// see logic.MaxWordWidth) are processed simultaneously: a bit level
// corresponds to one target fault (fault-parallel generation) or to one
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
// faults at L=64, 95 % of all Val merges added bits only to conflicted levels.
//
// # Plane storage layout
//
// Each plane kind is stored structure-of-arrays: one []uint64 per bit plane
// (Zero/One/Stable/Instable), holding K consecutive words per net, where K
// (1 or 2, logic.MaxK) is fixed at construction from the requested word width
// (NewStateWidth).  Operations run over the first kA ≤ K words, where kA
// covers the highest active level of the current Reset epoch, and dispatch on
// kA to one of two kernel tiers: scalar one-word kernels (backImply1,
// mergeVal1) and unrolled two-word kernels (backImply2, mergeVal2).  A K=2
// state running a 64-level pass pays for one word, not two.  The four plane
// kinds and their trail stamps cost 160 bytes per net at K=1.
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
// costs 4.5 µs instead of the 10.1 µs of whole-circuit propagation.
//
// The incremental closure is bit-identical to the full-sweep reference
// (NewFullSweepState, see sweep.go) on the requirement cone.  Outside the
// cone Val and Sim are unspecified; the full sweep computes them, and nothing
// reads them.  On bit levels whose closure contains a conflict the Val planes
// may differ between the two implementations (a level freezes at its first
// conflicting merge, and which merge lands first is order-dependent), but the
// conflict masks themselves, JustifiedMask, UnjustifiedWord, the cone's Val
// on all conflict-free levels and its Sim plane, and therefore every
// generator decision, are identical.  equiv_test.go checks this contract on
// randomized and ISCAS-85-class circuits at K=1 and K=2, kernel_test.go pins
// the two-word kernels to the one-word ones, and freeze_test.go checks that
// freezing a level is invisible to every other level.
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

	// The plane kinds: requirements, input assignments, implication closure
	// and forward simulation.
	req, pi, val, sim planes7

	active      logic.Mask // bit levels in use
	conflict    logic.Mask // reported conflict mask (subset of active)
	valConflict logic.Mask // accumulated conflict bits of the Val plane

	// faninBuf7 is the gather buffer of evalGate, which writes its result
	// to evalReg; only words [0, ka) of evalReg are meaningful.
	faninBuf7 []logic.Word7
	evalReg   logic.Word7V

	// fullSweep marks the full-sweep reference (NewFullSweepState): Imply
	// and ForwardSim recompute from scratch instead of propagating events.
	fullSweep bool

	// pendImply lists the nets whose Req or PI changed since Imply last
	// absorbed them, pendSim the inputs whose PI changed since ForwardSim last
	// simulated them (duplicates allowed); Imply and ForwardSim drain them,
	// and Undo restores them as they were at the matching Assign.
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
	// same per fault at L=128 as at L=64.  Buckets are insertion-ordered and
	// truncated by length on Undo, so no scan of the whole circuit is ever
	// needed.
	reqNetsW [logic.MaxK][]circuit.NetID
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
	// of the open frames.
	frames    []frame
	trail     []trailEntry
	trailW    []uint64
	pendSaved []circuit.NetID
	stamps    [numPlanes][]int64
	frameSeq  int64
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
		c:        c,
		kcap:     k,
		ka:       k,
		req:      newPlanes7(n, k),
		pi:       newPlanes7(n, k),
		val:      newPlanes7(n, k),
		sim:      newPlanes7(n, k),
		dirty:    make([]uint8, n),
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
	for _, n := range s.coneNets {
		s.inCone[n] = false
	}
	s.coneNets = s.coneNets[:0]
	s.coneRoots = s.coneRoots[:0]
	s.coneDone = 0
	s.frames = s.frames[:0]
	s.trail = s.trail[:0]
	s.trailW = s.trailW[:0]
	s.pendSaved = s.pendSaved[:0]
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
	changed, had := false, false
	var firstBits [logic.MaxK]bool
	for w := 0; w < ka; w++ {
		o := off + w
		z, on, st, in := s.req.zero[o], s.req.one[o], s.req.stable[o], s.req.instable[o]
		had = had || z|on|st|in != 0
		if r.Zero[w]&^z|r.One[w]&^on|r.Stable[w]&^st|r.Instable[w]&^in != 0 {
			changed = true
			firstBits[w] = z|on|st|in == 0
		}
	}
	if !changed {
		return
	}
	if !had {
		// The net's first requirement bits: its fanin cone joins the
		// requirement cone at the next Imply or ForwardSim.
		s.coneRoots = append(s.coneRoots, net)
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
	if s.fullSweep {
		return s.implyFull()
	}
	s.growCone()
	s.seedImply()
	s.runImplyRounds()
	// Like the full sweep, Imply reports only conflicts present in the
	// closure; conflicts recorded with MarkConflict before this call are
	// discarded, so callers that track externally detected dead levels must
	// keep their own mask.
	s.conflict = s.valConflict.And(s.active)
	return s.ConflictMask()
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

// mergeVal merges a vector into Val[net], accumulates conflicts, and
// schedules the affected neighbors: the fanout gates re-evaluate forward, the
// net's own gate and its fanout gates rerun their backward implications.  It
// reports whether Val[net] changed.  It dispatches to the one- or two-word
// kernel by the epoch's word count.
//
// Conflicted levels are frozen (see the package comment): the incoming vector
// is masked with the live levels ^valConflict before the change test.  The
// mask is read before the merge, so the merge that first conflicts a level
// still lands (and is trailed).
func (s *State) mergeVal(net circuit.NetID, r *logic.Word7V) bool {
	if s.ka == 1 {
		return s.mergeVal1(net, r.Zero[0], r.One[0], r.Stable[0], r.Instable[0])
	}
	return s.mergeVal2(net,
		[2]uint64{r.Zero[0], r.Zero[1]}, [2]uint64{r.One[0], r.One[1]},
		[2]uint64{r.Stable[0], r.Stable[1]}, [2]uint64{r.Instable[0], r.Instable[1]})
}

// mergeVal1 is the one-word (ka==1) merge: the active plane windows are
// single words, so the merge runs on scalars with no vector registers.
// Two-word states running a one-word epoch use it too, hence s.off.
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
	s.pushBwd(net)
	for _, fo := range s.c.Gate(net).Fanout {
		s.pushFwd(fo)
		s.pushBwd(fo)
	}
	return true
}

// mergeVal2 is the two-word (ka==2) merge, fully unrolled on scalar pairs:
// the L=128 hot path.
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
	s.pushBwd(net)
	for _, fo := range s.c.Gate(net).Fanout {
		s.pushFwd(fo)
		s.pushBwd(fo)
	}
	return true
}

// evalGate evaluates gate g over the given plane storage into s.evalReg,
// running the scalar kernel once per plane word through the compact Word7
// gather buffer.
func (s *State) evalGate(g *circuit.Gate, p *planes7) {
	ka, buf := s.ka, s.faninBuf7[:len(g.Fanin)]
	for w := 0; w < ka; w++ {
		for i, f := range g.Fanin {
			o := s.off(f) + w
			buf[i] = logic.Word7{Zero: p.zero[o], One: p.one[o], Stable: p.stable[o], Instable: p.instable[o]}
		}
		r := logic.EvalGate7(g.Kind, buf)
		s.evalReg.Zero[w], s.evalReg.One[w] = r.Zero, r.One
		s.evalReg.Stable[w], s.evalReg.Instable[w] = r.Stable, r.Instable
	}
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
	for _, fo := range s.c.Gate(net).Fanout {
		s.pushSim(fo)
	}
}

// JustifiedMask returns the mask of the given levels that are active, carry
// no recorded conflict, and on which every requirement is covered by the
// forward simulation of the primary input assignments.  ForwardSim must have
// been called after the last assignment change.  Only nets carrying a
// requirement are inspected, and the scan of a plane word ends as soon as
// none of its levels is left: a caller passes the levels it still searches,
// not every active one.
func (s *State) JustifiedMask(levels logic.Mask) logic.Mask {
	mask := levels.And(s.active).AndNot(s.conflict)
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

// Unjustified reports whether net's requirement at the given active level
// (below Width) is uncovered by the forward simulation, as UnjustifiedWord's
// miss word does; ForwardSim must be up to date.
func (s *State) Unjustified(net circuit.NetID, level int) bool {
	return s.missWord(net, level>>6)>>uint(level&63)&1 != 0
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
