package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/backtrace"
	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sensitize"
	"repro/internal/testability"
)

// Generator is the bit-parallel path delay fault test pattern generator.
// It is bound to one circuit and one option set.  As the master of
// RunSharded or RemoteRun it holds the merged test set and the statistics,
// which accumulate over several runs; as a worker it holds only what a
// search needs, and adds the tests it emits to the run's pattern pool.
type Generator struct {
	c    *circuit.Circuit
	opts Options

	// st is one machine word wide, at most: wider units run as several
	// FPTPG groups (see processUnit).
	st  *implic.State
	tm  *testability.Measures
	sim *faultsim.Simulator

	// objKeys holds each bit level's objective order (see orderObjectives);
	// objs is the scratch result of findObjectives, and decisions the APTPG
	// decision stack, which runAPTPG truncates for every fault.
	objKeys   [][]uint64
	objs      []backtrace.Objective
	decisions []decision

	testSet *pattern.Set
	stats   Stats

	// OnSettle, when non-nil, is invoked once for every fault whose
	// classification becomes final, in the order the faults settle (which is
	// generally not the order they were passed in), with the fault's position
	// i in the run's fault list.  It must be set before RunSharded and must
	// not call back into the generator.
	OnSettle func(i int, r FaultResult)

	// pool is the run's pattern pool while the interleaved simulation is
	// on, nil otherwise; lastSimmed is the number of its patterns the
	// one-worker interval simulation has simulated.
	pool       *pool
	lastSimmed int

	// err is the first error a run's finishing passes hit (see Err).
	err error
}

// rec is the per-fault working record.
type rec struct {
	fault  paths.Fault
	res    *FaultResult
	cond   sensitize.Conditions
	sensOK bool
	// raw is the X-preserving form of a Tested fault's test while the
	// options track unfilled patterns (Options.EmitUnfilled), nil otherwise;
	// the merge appends it to the test set together with res.Test.  A
	// pointer keeps the record at 128 bytes.
	raw *pattern.Pair
	// idx is the fault's position in the run's fault list.
	idx int
}

// newRecs builds the result slots and working records for a fault list.
func newRecs(faults []paths.Fault) ([]FaultResult, []*rec) {
	results := make([]FaultResult, len(faults))
	recs := make([]*rec, len(faults))
	for i := range faults {
		results[i] = FaultResult{Fault: faults[i], Status: Pending, PatternIndex: -1}
		recs[i] = &rec{fault: faults[i], res: &results[i], idx: i}
	}
	return results, recs
}

// New creates a generator for the circuit with the given options.
func New(c *circuit.Circuit, opts Options) *Generator {
	opts = opts.normalize()
	newState := implic.NewState
	if opts.FullSweepImplic {
		newState = implic.NewFullSweepState
	}
	width := min(opts.WordWidth, logic.WordWidth)
	g := &Generator{
		c:       c,
		opts:    opts,
		st:      newState(c),
		tm:      testability.For(c),
		sim:     faultsim.New(c),
		testSet: pattern.NewSet(c),
		objKeys: make([][]uint64, width),
	}
	if opts.FaultSimInterval > 0 {
		g.pool = new(pool)
	}
	return g
}

// lend returns a worker generator that runs on g's own implication state,
// objective scratch and simulator instead of allocating its own: the master
// of a sharded run leaves them idle while its workers run, so worker 0 runs
// on them.  Every search begins with a Reset of the state, so the worker's
// outcomes are a fresh generator's.  g must not run until the worker is
// done.
func (g *Generator) lend() *Generator {
	return &Generator{c: g.c, opts: g.opts, st: g.st, tm: g.tm, sim: g.sim, objKeys: g.objKeys}
}

// absorbState merges a finished worker's non-pattern state back into g: its
// statistics are added and its error is kept unless g has one.  Patterns are
// merged separately, in canonical fault order, from the run's records (see
// mergeRun).  The worker must not be used afterwards.
func (g *Generator) absorbState(w *Generator) {
	g.stats.Add(w.stats)
	if w.err != nil {
		g.fail(w.err)
	}
}

// Options returns the (normalized) options the generator runs with.
func (g *Generator) Options() Options { return g.opts }

// Circuit returns the circuit the generator operates on.
func (g *Generator) Circuit() *circuit.Circuit { return g.c }

// TestSet returns the test patterns generated so far.
func (g *Generator) TestSet() *pattern.Set { return g.testSet }

// Stats returns the accumulated statistics.
func (g *Generator) Stats() Stats { return g.stats }

// Err returns the first error a run hit while simulating patterns, or nil:
// the test verification, the interleaved simulation's dropping, the drop
// reconciliation or the compaction failing to load a pattern into the
// simulator.  Every pattern reaches the simulator from the generator's own
// search or through a width check (remote outcomes, imported sets), so a
// non-nil Err is a bug; it is reported rather than leaving tests unverified,
// faults undropped, classifications unreconciled or the set uncompacted
// without a trace.  The error sticks: the generator's test set and results
// are suspect from then on.  A sharded run reports the errors of its workers
// too.
func (g *Generator) Err() error { return g.err }

// fail records err as the generator's error unless one is recorded already.
func (g *Generator) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

// consume drains the scheduler as one of the run's workers: it claims
// units, drops claimed faults that existing patterns already detect,
// processes the rest as word-parallel groups, and runs the interleaved
// fault simulation.  Each fault index of a unit refers into recs.
//
// The simulation scope follows ownership.  A worker that runs alone owns
// every record, so each pattern batch is simulated once against all
// still-pending faults at the interval points (the paper's dropping, linear
// in the pattern count) and no claim-time sweep is needed.  With several
// workers a record is only safely mutable after its unit is claimed, so each
// claimed unit is instead swept once against the patterns that accumulated
// before it was claimed.
//
//atpgvet:ctxloop
func (g *Generator) consume(ctx context.Context, sc *sched.Scheduler, exclusive bool, recs []*rec) {
	for ctx.Err() == nil {
		u, ok := sc.Next()
		if !ok {
			return
		}
		unit := make([]*rec, len(u.Faults))
		//atpgvet:ignore ctxloop -- bounded setup loop over one claimed unit (at most a word of faults), not a claim loop
		for i, f := range u.Faults {
			unit[i] = recs[f]
		}
		if !exclusive {
			g.claimSweep(unit)
		}
		g.processUnit(ctx, unit)
		if exclusive && ctx.Err() == nil {
			g.maybeSimulate(recs)
		}
	}
}

// processUnit runs one work unit: one window per machine word of the unit's
// still-pending faults, each run as a fault-parallel FPTPG group, and the
// alternative-parallel search for the faults FPTPG hands over.  Faults that
// exhaust MaxBacktracks are Aborted.  Nothing carries over from one unit to
// the next, so a unit's outcome depends on its own faults alone; bit levels
// are independent, so splitting a unit wider than the state into several
// windows changes no fault's outcome.  With FPTPG off a window is opened all
// the same, to start the APTPG searches from its closure, and hands every
// fault over.
func (g *Generator) processUnit(ctx context.Context, unit []*rec) {
	if ctx.Err() != nil {
		return
	}
	var group []*rec
	for _, r := range unit {
		if r.res.Status == Pending {
			group = append(group, r)
		}
	}
	for start := 0; start < len(group); start += logic.WordWidth {
		batch := group[start:min(start+logic.WordWidth, len(group))]
		conf := g.openWindow(batch)
		var hard []int
		if g.opts.UseFPTPG {
			g.stats.FPTPGGroups++
			hard = g.runGroup(ctx, batch, conf)
		} else {
			hard = make([]int, len(batch))
			for i := range hard {
				hard[i] = i
			}
		}
		for _, lvl := range hard {
			if ctx.Err() != nil {
				return
			}
			r := batch[lvl]
			if r.res.Status != Pending {
				continue
			}
			if g.opts.UseAPTPG {
				g.runAPTPG(ctx, r, lvl, conf.Bit(lvl))
			} else {
				g.markAborted(r, PhaseFPTPG)
			}
		}
	}
}

// claimSweep drops just-claimed faults that a pattern of the run's pool
// already detects.  It runs at unit claim time on multi-worker schedulers
// and on remote workers — where a worker cannot eagerly drop faults it has
// not claimed — so a fault is never searched when the existing tests
// already cover it.  Without a pool (the simulation is off) it does nothing.
func (g *Generator) claimSweep(unit []*rec) {
	g.dropDetected(unit, g.pool.since(0))
}

// finish sweeps up records that are still pending after the passes: faults
// cut short by cancellation carry the cause in their Err field, anything
// else (unreachable in a normal configuration) is Aborted.
func (g *Generator) finish(ctx context.Context, recs []*rec) {
	if err := ctx.Err(); err != nil {
		cause := context.Cause(ctx)
		if cause == nil {
			cause = err
		}
		for _, r := range recs {
			if r.res.Status == Pending {
				g.markCanceled(r, cause)
			}
		}
	}
	for _, r := range recs {
		if r.res.Status == Pending {
			g.markAborted(r, PhaseNone)
		}
	}
}

// launchValue is the value assigned to the path input primary input: the
// transition itself for robust generation, and just its final value for
// nonrobust generation (the first vector is derived by flipping the path
// input when the pattern is extracted).
func (g *Generator) launchValue(t paths.Transition) logic.Value7 {
	if g.opts.Mode == sensitize.Robust {
		return t.Value7()
	}
	return logic.Value7From3(t.FinalValue3())
}

// decisionValue maps a backtrace objective value to the value actually
// assigned at a primary input: stable values for robust generation (primary
// inputs do not glitch), plain final values for nonrobust generation.
func (g *Generator) decisionValue(v logic.Value3) logic.Value7 {
	if g.opts.Mode == sensitize.Robust {
		if v == logic.One3 {
			return logic.Stable1
		}
		return logic.Stable0
	}
	return logic.Value7From3(v)
}

// sensitizeRec computes (and caches) the sensitization conditions of the
// fault, accounting the time separately (the t_sens column of Tables 5/6).
func (g *Generator) sensitizeRec(r *rec) bool {
	if r.sensOK {
		return true
	}
	start := time.Now()
	cond, err := sensitize.Sensitize(g.c, r.fault, g.opts.Mode)
	g.stats.SensitizeTime += time.Since(start)
	if err != nil {
		return false
	}
	r.cond = cond
	r.sensOK = true
	return true
}

// ---------------------------------------------------------------------------
// FPTPG: fault-parallel test pattern generation.
// ---------------------------------------------------------------------------

// openWindow places up to WordWidth faults on the bit levels of the state,
// one per level: it sensitizes each fault, puts its requirements and launch
// on its level, implies the window once and saves that closure, from which
// runAPTPG starts every fault the window hands over.  It returns the levels
// whose first closure conflicts; a fault whose sensitization fails keeps its
// level empty (r.sensOK stays false).
func (g *Generator) openWindow(batch []*rec) logic.Mask {
	g.st.Reset(logic.LevelsMask(len(batch)))
	var placed logic.Mask
	for i, r := range batch {
		if !g.sensitizeRec(r) {
			continue
		}
		bit := logic.BitMask(i)
		for _, a := range r.cond.Assignments {
			g.st.AddRequirement(a.Net, a.Value, bit)
		}
		g.st.AssignPI(r.fault.Path.Input(), g.launchValue(r.fault.Transition), bit)
		placed |= bit
	}
	conf := g.st.Imply() & placed
	g.st.SaveClosure()
	return conf
}

// runGroup runs FPTPG on an opened window (see openWindow) whose first
// closure conflicts on the levels conf, and returns the levels of the faults
// that need backtracking (handed to APTPG), in hand-over order.  On context
// cancellation the group is abandoned mid-iteration; its unsettled faults
// stay Pending and are swept up by finish.
func (g *Generator) runGroup(ctx context.Context, batch []*rec, conf logic.Mask) []int {
	var needPhase2 []int
	g.stats.Implications++ // the window's first closure

	var alive logic.Mask
	for i, r := range batch {
		if !r.sensOK {
			g.markAborted(r, PhaseFPTPG)
			continue
		}
		alive |= logic.BitMask(i)
	}
	if newConf := conf & alive; newConf != 0 {
		for i, r := range batch {
			if newConf.Bit(i) {
				g.markRedundant(r, PhaseFPTPG)
			}
		}
		alive &^= newConf
	}

	var decided logic.Mask
	for iter := 0; alive != 0 && iter < maxFPTPGIterations; iter++ {
		if ctx.Err() != nil {
			return nil
		}
		g.st.ForwardSim()
		if just := g.st.JustifiedMask(alive); just != 0 {
			for i, r := range batch {
				if !just.Bit(i) {
					continue
				}
				if !g.emitTest(r, i, PhaseFPTPG) {
					// Verification failed: give the fault to APTPG.
					needPhase2 = append(needPhase2, i)
				}
				alive &^= logic.BitMask(i)
			}
		}
		if alive == 0 {
			break
		}

		// One backtrace-guided input assignment per still-alive level, from
		// the objective order taken at the group's first decision point:
		// FPTPG never undoes, so the order serves every round.
		if iter == 0 {
			g.orderObjectives(alive)
		}
		progress := false
		for i, r := range batch {
			if !alive.Bit(i) {
				continue
			}
			bit := logic.BitMask(i)
			obj, ok := g.findObjective(g.objKeys[i], i)
			if !ok {
				needPhase2 = append(needPhase2, i)
				alive &^= bit
				continue
			}
			g.st.AssignPI(obj.Input, g.decisionValue(obj.Value), bit)
			decided |= bit
			r.res.Decisions++
			g.stats.Decisions++
			progress = true
		}
		if !progress {
			break
		}

		if newConf := g.implyCounted() & alive; newConf != 0 {
			for i, r := range batch {
				if !newConf.Bit(i) {
					continue
				}
				if decided.Bit(i) {
					// The conflict may stem from a wrong decision: this is
					// exactly the situation in which the paper passes over to
					// APTPG instead of backtracking inside FPTPG.
					needPhase2 = append(needPhase2, i)
				} else {
					g.markRedundant(r, PhaseFPTPG)
				}
			}
			alive &^= newConf
		}
	}

	// Whatever is still alive after the iteration limit goes to APTPG.
	for i := range batch {
		if alive.Bit(i) {
			needPhase2 = append(needPhase2, i)
		}
	}
	return needPhase2
}

// objectiveCost is the testability cost of justifying the unjustified
// requirement on net at the given bit level: the controllability of the
// required final value (a pure stability requirement defaults to 1, the
// value Backtrace refines towards).
func (g *Generator) objectiveCost(net circuit.NetID, level int) int {
	want := g.st.ReqGet(net, level).Final()
	if !want.IsAssigned() {
		want = logic.One3
	}
	return g.tm.Cost(net, want)
}

// orderObjectives orders the unjustified requirements of every level in
// levels cheapest first (by objectiveCost), ties in topological order:
// justifying the easy requirements first lets their implications constrain
// the state before the expensive ones are attacked, which measurably lowers
// the abort count on the ISCAS circuits (hardest-first raised it).  One
// UnjustifiedWord scan serves all levels.  Each
// (net, level) requirement becomes the key cost<<32 | OrderPos(net) in
// objKeys[level] — costs saturate at testability.MaxMeasure = 2^28, so the
// key fits — and each level's keys are sorted once.
//
// One order serves a whole epoch, an FPTPG group or an APTPG fault, when it
// is taken at the epoch's first decision point: the keys are fixed after
// Reset, and the simulation only grows from there (FPTPG never undoes, APTPG
// never below its base state), so a level's unjustified requirements only
// shrink, in unchanged order.  findObjective skips the ones justified since.
func (g *Generator) orderObjectives(levels logic.Mask) {
	nets, miss := g.st.UnjustifiedWord()
	for m := levels; m != 0; m &= m - 1 {
		lvl := m.TrailingZeros()
		g.objKeys[lvl] = g.objKeys[lvl][:0]
	}
	for i, net := range nets {
		pos := uint64(g.c.OrderPos(net))
		for m := logic.Mask(miss[i]) & levels; m != 0; m &= m - 1 {
			lvl := m.TrailingZeros()
			g.objKeys[lvl] = append(g.objKeys[lvl], uint64(g.objectiveCost(net, lvl))<<32|pos)
		}
	}
	for m := levels; m != 0; m &= m - 1 {
		slices.Sort(g.objKeys[m.TrailingZeros()])
	}
}

// objectiveNet returns the net of an orderObjectives key.
func (g *Generator) objectiveNet(key uint64) circuit.NetID {
	return g.c.TopoOrder()[uint32(key)]
}

// findObjective returns a primary input assignment helping to justify some
// requirement that is still unjustified at the given bit level, preferring
// the cheapest requirement.  keys is an epoch order of the level's
// requirements (see orderObjectives), and ForwardSim must be up to date.
func (g *Generator) findObjective(keys []uint64, level int) (backtrace.Objective, bool) {
	if objs := g.findObjectives(keys, level, 1); len(objs) > 0 {
		return objs[0], true
	}
	return backtrace.Objective{}, false
}

// findObjectives collects up to max distinct primary input objectives from
// the requirements of keys still unjustified at the given bit level, in
// order; APTPG enumerates all their value combinations at once.  The
// returned slice is a generator-owned scratch buffer, valid until the next
// call.
//
//atpgvet:scratch
func (g *Generator) findObjectives(keys []uint64, level, max int) []backtrace.Objective {
	objs := g.objs[:0]
scan:
	for _, key := range keys {
		if len(objs) >= max {
			break
		}
		net := g.objectiveNet(key)
		if !g.st.Unjustified(net, level) {
			continue
		}
		obj, ok := backtrace.Backtrace(g.st, g.tm, net, g.st.ReqGet(net, level), level)
		if !ok {
			continue
		}
		for _, o := range objs {
			if o.Input == obj.Input {
				continue scan
			}
		}
		objs = append(objs, obj)
	}
	g.objs = objs
	return objs
}

func (g *Generator) implyCounted() logic.Mask {
	g.stats.Implications++
	return g.st.Imply()
}

// ---------------------------------------------------------------------------
// APTPG: alternative-parallel test pattern generation.
// ---------------------------------------------------------------------------

type decision struct {
	input      circuit.NetID
	value      logic.Value3
	enumerated bool
	flipped    bool
}

// runAPTPG handles one hard fault, the one on bit level `level` of the
// window just opened (see openWindow), whose first closure conflicted if
// conflicted is set: the fault is flattened onto the run's WordWidth bit
// levels, up to log2(width) backtrace-selected inputs are enumerated in
// parallel (one value combination per bit level) and any further decisions
// are made conventionally with chronological backtracking on all levels at
// once.  MaxBacktracks bounds the search, after which the fault is Aborted.
// The search starts from the window's closure of the fault's level instead
// of re-implying the fault: bit levels are independent, so that closure is
// the fault's own (see implic.State.LoadClosure).
func (g *Generator) runAPTPG(ctx context.Context, r *rec, level int, conflicted bool) {
	g.stats.APTPGFaults++
	if !r.sensOK {
		// The window could not sensitize it.
		g.markAborted(r, PhaseAPTPG)
		return
	}
	// The window's closure of the fault's level is the search's first
	// implication.
	g.stats.Implications++
	if conflicted {
		// Conflict on every level with no optional assignment: redundant.
		g.markRedundant(r, PhaseAPTPG)
		return
	}
	width := g.opts.WordWidth
	maxEnum := enumInputs(width)
	// The enumeration distinguishes at most 2^maxEnum value combinations;
	// bit levels beyond that replay duplicates of the first 2^maxEnum (see
	// enumWord), so the active mask is narrowed to the alternatives the
	// search can actually tell apart: at most one machine word.
	if ew := 1 << uint(maxEnum); ew < width {
		width = ew
	}
	active := logic.LevelsMask(width)
	g.st.Reset(active)
	for _, a := range r.cond.Assignments {
		g.st.AddRequirement(a.Net, a.Value, active)
	}
	g.st.AssignPI(r.fault.Path.Input(), g.launchValue(r.fault.Transition), active)
	g.st.LoadClosure(level)

	// One order serves the search (see orderObjectives), and level 0's
	// serves every level: they all carry the same requirements.
	g.st.ForwardSim()
	g.orderObjectives(logic.BitMask(0))
	keys := g.objKeys[0]

	decisions := g.decisions[:0]
	enumCount := 0
	backtracks := 0 // backtracks spent on the fault in this pass
	var deadMask logic.Mask
	sawStuck := false

	// The search backtracks over the assignment trail: every decision opens
	// a frame (implic.State.Assign) whose Undo restores the exact
	// pre-decision closure and simulation.  Every exit from the search (test
	// emitted, redundancy proof, budget exhaustion, cancellation) must close
	// the frames it opened: a frame leaked across faults makes a later
	// backtrack restore another fault's state, which surfaces as an
	// equivalence failure much later.
	defer func() {
		for g.st.Depth() > 0 {
			g.st.Undo()
		}
		g.decisions = decisions // keep the grown stack for the next fault
	}()

	maxSteps := 64 * (g.opts.MaxBacktracks + 4) * (len(g.c.Inputs()) + 4)
	for step := 0; step < maxSteps; step++ {
		// The step loop can run long on hard faults; poll the context every
		// few steps so cancellation stays responsive without a per-step lock.
		if step&15 == 0 && ctx.Err() != nil {
			return
		}
		g.st.ForwardSim()
		aliveMask := active &^ g.st.ConflictMask() &^ deadMask
		if just := g.st.JustifiedMask(aliveMask); just != 0 {
			lvl := just.TrailingZeros()
			if g.emitTest(r, lvl, PhaseAPTPG) {
				return
			}
			deadMask |= logic.BitMask(lvl)
			sawStuck = true
			continue
		}

		if aliveMask == 0 {
			// Every alternative currently under consideration conflicts:
			// backtrack chronologically over the conventional decisions.
			backtracks++
			r.res.Backtracks++
			g.stats.Backtracks++
			if backtracks > g.opts.MaxBacktracks {
				g.markAborted(r, PhaseAPTPG)
				return
			}
			flipped := false
			for len(decisions) > 0 {
				last := &decisions[len(decisions)-1]
				if !last.enumerated && !last.flipped {
					g.st.Undo()
					last.flipped = true
					last.value = last.value.Not()
					g.st.Assign()
					g.st.AssignPI(last.input, g.decisionValue(last.value), active)
					flipped = true
					break
				}
				if last.enumerated {
					enumCount--
				}
				g.st.Undo()
				decisions = decisions[:len(decisions)-1]
			}
			if !flipped {
				// The whole search space has been explored.  A completed
				// search without dead levels is a redundancy proof (valid at
				// any width); a search that had to skip levels stays
				// inconclusive.
				if sawStuck {
					g.markAborted(r, PhaseAPTPG)
				} else {
					g.markRedundant(r, PhaseAPTPG)
				}
				return
			}
			g.implyCounted()
			deadMask = 0
			continue
		}

		// Make new decisions, guided by the lowest still-alive level.  While
		// the enumeration budget of log2(L) inputs lasts, several backtrace
		// objectives are collected at once and all their value combinations
		// are examined with a single bit-parallel implication, as described
		// in Section 3.2 of the paper.  Beyond the budget, decisions are
		// conventional: one input, one value on all levels.
		lvl := aliveMask.TrailingZeros()
		if enumCount < maxEnum {
			objs := g.findObjectives(keys, lvl, maxEnum-enumCount)
			if len(objs) == 0 {
				deadMask |= logic.BitMask(lvl)
				sawStuck = true
				continue
			}
			for _, obj := range objs {
				r.res.Decisions++
				g.stats.Decisions++
				decisions = append(decisions, decision{input: obj.Input, enumerated: true})
				g.st.Assign()
				g.st.AssignPIWord(obj.Input, g.enumWord(enumCount, width))
				enumCount++
			}
		} else {
			obj, ok := g.findObjective(keys, lvl)
			if !ok {
				deadMask |= logic.BitMask(lvl)
				sawStuck = true
				continue
			}
			r.res.Decisions++
			g.stats.Decisions++
			decisions = append(decisions, decision{input: obj.Input, value: obj.Value})
			g.st.Assign()
			g.st.AssignPI(obj.Input, g.decisionValue(obj.Value), active)
		}
		g.implyCounted()
	}
	g.markAborted(r, PhaseAPTPG)
}

// enumInputs is the number of primary inputs APTPG enumerates in parallel
// at the given width: log2(width), capped at the machine word's log2(64) = 6,
// the paper's limit.
func enumInputs(width int) int {
	return min(log2(width), log2(logic.WordWidth))
}

// enumWord builds the per-level assignment word of the idx-th enumerated
// input at the given word width: bit level j receives value bit idx of j, so
// across the active levels all combinations of the enumerated inputs appear.
func (g *Generator) enumWord(idx, width int) logic.Word7 {
	one := g.decisionValue(logic.One3)
	zero := g.decisionValue(logic.Zero3)
	var w logic.Word7
	for j := 0; j < width; j++ {
		if (j>>uint(idx))&1 == 1 {
			w.Set(j, one)
		} else {
			w.Set(j, zero)
		}
	}
	return w
}

// ---------------------------------------------------------------------------
// Pattern extraction, verification and bookkeeping.
// ---------------------------------------------------------------------------

// extractPattern builds the two-vector test from the primary input
// assignments of the given bit level.  It returns both the filled test and
// its X-preserving (pre-fill) form: inputs the justification never
// constrained stay X in the raw pair, which is what static compaction
// merges on.  Applying FillX(fillValue) to the raw pair reproduces the
// filled pair exactly.
func (g *Generator) extractPattern(r *rec, level int) (filled, raw pattern.Pair) {
	raw = pattern.NewPair(len(g.c.Inputs()))
	for i := range raw.V2 {
		v7 := g.st.PIAt(i).Get(level)
		final := v7.Final()
		if !final.IsAssigned() {
			continue
		}
		raw.V2[i] = final
		switch {
		case v7.StableBit():
			raw.V1[i] = final
		case v7.InstableBit():
			raw.V1[i] = final.Not()
		}
		// Otherwise only the final value is constrained (the weaker
		// final-only assignment of nonrobust generation): the first vector
		// stays X and the fill keeps it equal to V2.
	}
	if g.opts.Mode == sensitize.Nonrobust {
		// Nonrobust generation only fixes final values; the transition is
		// launched by flipping the path input in the first vector.
		if i := g.c.InputPos(r.fault.Path.Input()); i >= 0 {
			raw.V2[i] = r.fault.Transition.FinalValue3()
			raw.V1[i] = raw.V2[i].Not()
		}
	}
	return raw.FillX(fillValue), raw
}

// emitTest extracts, verifies and records a test for the fault from the
// given bit level: in the fault's record, for the run's merge, and in the
// run's pool, for its fault simulation.  It returns false (and leaves the
// fault pending) when the verification rejects the pattern.
func (g *Generator) emitTest(r *rec, level int, phase Phase) bool {
	p, raw := g.extractPattern(r, level)
	if !g.verifyPattern(r.fault, p) {
		return false
	}
	g.pool.add(p)
	r.res.Status = Tested
	r.res.Phase = phase
	r.res.Test = p
	if g.opts.EmitUnfilled {
		r.raw = &pattern.Pair{V1: raw.V1, V2: raw.V2}
	}
	g.settle(r)
	return true
}

// verifyPattern checks with the fault simulator that the pattern actually
// detects the fault in the selected test class, guarding against generator
// bugs.  The check is one simulator Load and one Detects, which evaluates
// only the fanin cone of the path and its side inputs: about 3 % of the
// gates on the s38584 stand-in, 16 % on c7552.  A pattern the simulator
// cannot load is rejected and the failure recorded in Err.
func (g *Generator) verifyPattern(f paths.Fault, p pattern.Pair) bool {
	if _, err := g.sim.Load([]pattern.Pair{p}); err != nil {
		g.fail(fmt.Errorf("core: verifying a generated test: %w", err))
		return false
	}
	return g.sim.Detects(f, g.opts.Mode == sensitize.Robust) != 0
}

func (g *Generator) markRedundant(r *rec, phase Phase) {
	r.res.Status = Redundant
	r.res.Phase = phase
	g.settle(r)
}

func (g *Generator) markAborted(r *rec, phase Phase) {
	r.res.Status = Aborted
	r.res.Phase = phase
	g.settle(r)
}

// markCanceled aborts a fault the run never finished because its context was
// canceled, carrying the cancellation cause in the result.
func (g *Generator) markCanceled(r *rec, cause error) {
	r.res.Err = cause
	g.markAborted(r, PhaseNone)
}

// settle reports a freshly finalized fault to the OnSettle callback.
func (g *Generator) settle(r *rec) {
	if g.OnSettle != nil {
		g.OnSettle(r.idx, *r.res)
	}
}

// ---------------------------------------------------------------------------
// Interleaved fault simulation.
// ---------------------------------------------------------------------------

// maybeSimulate drops still-pending faults that the run's patterns already
// detect, after every FaultSimInterval of them, as the paper does after
// every L generated patterns.  The only worker of a run adds every pattern
// of the pool, so each is simulated once.
func (g *Generator) maybeSimulate(recs []*rec) {
	pairs := g.pool.since(g.lastSimmed)
	if g.pool == nil || len(pairs) < g.opts.FaultSimInterval {
		return
	}
	g.lastSimmed += len(pairs)
	g.dropDetected(recs, pairs)
}

// dropDetected fault-simulates the pairs against every still-pending fault
// and settles the detected ones as DetectedBySim.  Their PatternIndex stays
// -1: the run's merge decides the set's order, and reconcileDrops assigns
// each the first detecting pattern of the merged set.  A batch the
// simulator cannot load stops the dropping and is recorded in Err.
func (g *Generator) dropDetected(recs []*rec, pairs []pattern.Pair) {
	robust := g.opts.Mode == sensitize.Robust
	for start := 0; start < len(pairs); start += faultsim.BatchSize {
		end := start + faultsim.BatchSize
		if end > len(pairs) {
			end = len(pairs)
		}
		if _, err := g.sim.Load(pairs[start:end]); err != nil {
			g.fail(fmt.Errorf("core: simulating patterns for dropping: %w", err))
			return
		}
		for _, r := range recs {
			if r.res.Status != Pending {
				continue
			}
			if g.sim.Detects(r.fault, robust) != 0 {
				r.res.Status = DetectedBySim
				r.res.Phase = PhaseSimulation
				g.settle(r)
			}
		}
	}
}
