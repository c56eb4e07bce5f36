package core

import (
	"context"
	"fmt"
	"math/bits"
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
// It is bound to one circuit and one option set; Run may be called several
// times, accumulating into the same test set and statistics.
type Generator struct {
	c    *circuit.Circuit
	opts Options

	st      *implic.State
	pruneSt *implic.State
	// aptpgSt, present only on multi-word engines, is a single-word state the
	// narrowed APTPG searches swap in: a per-fault search on the wide state
	// would stride its plane reads by the group's word capacity, paying the
	// wide cache footprint for single-word epochs.
	aptpgSt *implic.State
	tm      *testability.Measures
	sim     *faultsim.Simulator

	// objKeys holds each bit level's objective order (see orderObjectives);
	// objs is the scratch result of findObjectives.
	objKeys [][]uint64
	objs    []backtrace.Objective

	testSet *pattern.Set
	stats   Stats

	// OnSettle, when non-nil, is invoked once for every fault whose
	// classification becomes final, in the order the faults settle (which is
	// generally not the order they were passed in).  It must be set before
	// Run and must not call back into the generator.
	OnSettle func(FaultResult)

	// OnPattern, when non-nil, is invoked for every verified test pattern as
	// it is added to the test set.  The sharded engine (RunSharded) uses it
	// to publish each worker's patterns to the other workers; the pair must
	// be treated as immutable.
	OnPattern func(pattern.Pair)

	// ImportPatterns, when non-nil, is polled at every fault-simulation
	// point for patterns generated outside this generator (by other workers
	// of a sharded run).  The returned pairs are fault-simulated against the
	// still-pending faults, and detected faults are dropped exactly like
	// drops from the generator's own interleaved simulation, except that
	// their PatternIndex is -1: foreign patterns have no index in this
	// generator's test set.  It is ignored while FaultSimInterval is 0.
	ImportPatterns func() []pattern.Pair

	// redundantPrefixes maps a subpath key (path prefix + launch transition)
	// proved unsensitizable to true; faults containing such a prefix are
	// redundant without further work.
	redundantPrefixes map[string]bool

	// newPatterns counts patterns generated since the last interleaved fault
	// simulation; lastSimmed is the test-set index already simulated.
	newPatterns int
	lastSimmed  int

	// runBase is the test-set length at the start of the current run: the
	// claim-time sweep only simulates the run's own patterns, so faults of
	// one run are never dropped by an earlier run's tests.
	runBase int

	// foreign accumulates the patterns imported from the other workers of a
	// sharded run, so faults claimed later are still checked against every
	// foreign pattern that arrived before them.
	foreign []pattern.Pair

	// err is the first error a run's finishing passes hit (see Err).
	err error
}

// rec is the per-fault working record.
type rec struct {
	fault  paths.Fault
	res    *FaultResult
	cond   sensitize.Conditions
	sensOK bool
	// worker is the index of the worker that claimed the fault; the merge
	// uses it to locate the worker-local test set a PatternIndex refers to.
	worker int
}

// newRecs builds the result slots and working records for a fault list.
func newRecs(faults []paths.Fault) ([]FaultResult, []*rec) {
	results := make([]FaultResult, len(faults))
	recs := make([]*rec, len(faults))
	for i := range faults {
		results[i] = FaultResult{Fault: faults[i], Status: Pending, PatternIndex: -1}
		recs[i] = &rec{fault: faults[i], res: &results[i]}
	}
	return results, recs
}

// New creates a generator for the circuit with the given options.
func New(c *circuit.Circuit, opts Options) *Generator {
	opts = opts.normalize()
	g := &Generator{
		c:                 c,
		opts:              opts,
		st:                implic.NewStateWidth(c, opts.WordWidth),
		pruneSt:           implic.NewStateWidth(c, 1),
		tm:                testability.For(c),
		sim:               faultsim.New(c),
		testSet:           pattern.NewSet(c),
		redundantPrefixes: make(map[string]bool),
		objKeys:           make([][]uint64, opts.WordWidth),
	}
	if opts.WordWidth > logic.WordWidth {
		g.aptpgSt = implic.NewState(c)
	}
	if opts.MaxImplySweeps > 0 {
		g.st.MaxSweeps = opts.MaxImplySweeps
		g.pruneSt.MaxSweeps = opts.MaxImplySweeps
		if g.aptpgSt != nil {
			g.aptpgSt.MaxSweeps = opts.MaxImplySweeps
		}
	}
	if opts.FullSweepImplic {
		g.st.FullSweep = true
		g.pruneSt.FullSweep = true
		if g.aptpgSt != nil {
			g.aptpgSt.FullSweep = true
		}
	}
	return g
}

// Fork returns a fresh generator over the same (immutable, shared) circuit
// and options, with an empty test set and zeroed statistics, but carrying a
// snapshot of the redundant subpaths learned so far.  Forked generators are
// the workers of a sharded run: each owns its complete mutable state, so
// forks may run concurrently with each other (but not with their parent).
func (g *Generator) Fork() *Generator {
	w := New(g.c, g.opts)
	for k := range g.redundantPrefixes {
		w.redundantPrefixes[k] = true
	}
	return w
}

// absorbState merges a finished worker's non-pattern state back into g: its
// statistics are added, its error is kept unless g has one, and the
// redundant subpaths it learned are kept for later runs.  Patterns are
// merged separately, in canonical fault order, by the sharded orchestrator
// (see mergeResults).  The worker must not be used afterwards.
func (g *Generator) absorbState(w *Generator) {
	g.stats.Add(w.stats)
	if w.err != nil {
		g.fail(w.err)
	}
	//atpgvet:ignore detmerge -- order-independent map-to-map copy; the set union is the same whatever the iteration order
	for k := range w.redundantPrefixes {
		g.redundantPrefixes[k] = true
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

// Run generates tests for the given target faults and returns one result per
// fault, in the same order.  The context bounds the run: when it is canceled
// or its deadline expires, generation stops at the next check point and every
// fault that has not settled yet is returned as Aborted with the cancellation
// cause in its Err field.  Callers that need to distinguish a canceled run
// from a completed one inspect ctx.Err (or context.Cause) after Run returns.
//
// Internally the run is scheduler-driven: the fault list is cut into work
// units (word-parallel groups) that a single consumer drains in input order.
// The multi-worker variant of the same pipeline is RunSharded.
func (g *Generator) Run(ctx context.Context, faults []paths.Fault) []FaultResult {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	sensAtStart := g.stats.SensitizeTime

	results, recs := newRecs(faults)
	g.stats.Faults += len(faults)
	g.runBase = g.testSet.Len()

	if len(recs) > 0 {
		sc := sched.New(1)
		sc.Load(g.opts.cut(len(recs)))
		g.consume(ctx, sc, 0, recs)
		g.stats.Sched.Add(sc.Stats())
	}
	g.finish(ctx, recs)
	g.reconcileDrops(results)

	g.stats.GenerateTime += time.Since(start) - (g.stats.SensitizeTime - sensAtStart)
	return results
}

// consume drains the scheduler as worker w: it claims units, drops claimed
// faults that existing patterns already detect, processes the rest as
// word-parallel groups, and runs the interleaved fault simulation.  Each
// fault index of a unit refers into recs.
//
// The simulation scope follows ownership.  A single-worker scheduler gives
// the consumer exclusive ownership of every record, so each pattern batch
// is simulated once against all still-pending faults at the interval points
// (the paper's dropping, linear in the pattern count) and no claim-time
// sweep is needed.  With several workers a record is only safely mutable
// after its unit is claimed, so the eager scope shrinks to the claimed
// records and each claimed unit is instead swept once against the patterns
// that accumulated before it was claimed.
//
//atpgvet:ctxloop
func (g *Generator) consume(ctx context.Context, sc *sched.Scheduler, w int, recs []*rec) {
	exclusive := sc.Workers() == 1
	scope := recs
	if !exclusive {
		scope = nil
	}
	for ctx.Err() == nil {
		u, ok := sc.Next(w)
		if !ok {
			return
		}
		unit := make([]*rec, len(u.Faults))
		//atpgvet:ignore ctxloop -- bounded setup loop over one claimed unit (at most a word of faults), not a claim loop
		for i, f := range u.Faults {
			unit[i] = recs[f]
			unit[i].worker = w
		}
		if !exclusive {
			g.claimSweep(unit)
			scope = append(scope, unit...)
		}
		g.processUnit(ctx, unit)
		if ctx.Err() == nil {
			g.maybeSimulate(scope)
		}
	}
}

// processUnit runs one work unit: subpath pruning, one fault-parallel FPTPG
// group per width-window of the unit's still-pending faults, and the
// alternative-parallel search for the faults FPTPG hands over.  Faults that
// exhaust MaxBacktracks are Aborted.
func (g *Generator) processUnit(ctx context.Context, unit []*rec) {
	var group []*rec
	for _, r := range unit {
		if ctx.Err() != nil {
			return
		}
		if r.res.Status != Pending {
			continue
		}
		if g.opts.SubpathPruning && g.pruneIfKnownRedundant(r) {
			continue
		}
		group = append(group, r)
	}
	for start := 0; start < len(group); start += g.opts.WordWidth {
		end := start + g.opts.WordWidth
		if end > len(group) {
			end = len(group)
		}
		batch := group[start:end]
		var hard []*rec
		if g.opts.UseFPTPG {
			g.stats.FPTPGGroups++
			hard = g.runGroup(ctx, batch)
		} else {
			hard = batch
		}
		for _, r := range hard {
			if ctx.Err() != nil {
				return
			}
			if r.res.Status != Pending {
				continue
			}
			if g.opts.UseAPTPG {
				g.runAPTPG(ctx, r)
			} else {
				g.markAborted(r, PhaseFPTPG)
			}
		}
	}
}

// claimSweep drops just-claimed faults that are already detected: by a
// pattern another worker published (the accumulated foreign buffer), or by a
// pattern this worker generated earlier in the run.  It runs at unit claim
// time on multi-worker schedulers — where a worker cannot eagerly drop
// faults it has not claimed — so a fault is never searched when the
// worker's existing tests already cover it.  Disabled together with the
// interleaved simulation.
func (g *Generator) claimSweep(unit []*rec) {
	if g.opts.FaultSimInterval <= 0 {
		return
	}
	if g.ImportPatterns != nil {
		if foreign := g.ImportPatterns(); len(foreign) > 0 {
			g.foreign = append(g.foreign, foreign...)
		}
	}
	if len(g.foreign) > 0 {
		g.dropDetected(unit, g.foreign, -1)
	}
	if g.testSet.Len() > g.runBase {
		g.dropDetected(unit, g.testSet.Pairs[g.runBase:], g.runBase)
	}
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

// runGroup processes up to WordWidth faults simultaneously, one per bit
// level, and returns the faults that need backtracking (handed to APTPG).
// On context cancellation the group is abandoned mid-iteration; its unsettled
// faults stay Pending and are swept up by Run.
func (g *Generator) runGroup(ctx context.Context, batch []*rec) []*rec {
	var needPhase2 []*rec
	active := logic.LevelsMask(len(batch))
	g.st.Reset(active)

	var alive logic.Mask
	for i, r := range batch {
		if !g.sensitizeRec(r) {
			g.markAborted(r, PhaseFPTPG)
			continue
		}
		bit := logic.BitMask(i)
		for _, a := range r.cond.Assignments {
			g.st.AddRequirement(a.Net, a.Value, bit)
		}
		g.st.AssignPI(r.fault.Path.Input(), g.launchValue(r.fault.Transition), bit)
		alive = alive.Or(bit)
	}

	var decided logic.Mask
	conf := g.implyCounted()
	if newConf := conf.And(alive); !newConf.IsZero() {
		for i, r := range batch {
			if newConf.Bit(i) {
				g.markRedundant(r, PhaseFPTPG)
			}
		}
		alive = alive.AndNot(newConf)
	}

	for iter := 0; !alive.IsZero() && iter < maxFPTPGIterations; iter++ {
		if ctx.Err() != nil {
			return nil
		}
		g.st.ForwardSim()
		if just := g.st.JustifiedMask().And(alive); !just.IsZero() {
			for i, r := range batch {
				if !just.Bit(i) {
					continue
				}
				bit := logic.BitMask(i)
				if g.emitTest(r, i, PhaseFPTPG) {
					alive = alive.AndNot(bit)
				} else {
					// Verification failed: give the fault to APTPG.
					needPhase2 = append(needPhase2, r)
					alive = alive.AndNot(bit)
				}
			}
		}
		if alive.IsZero() {
			break
		}

		// One backtrace-guided input assignment per still-alive level.  The
		// assignments only write the input plane and the simulation is not
		// rerun before the next round, so one ordering serves every level.
		g.orderObjectives(alive)
		progress := false
		for i, r := range batch {
			if !alive.Bit(i) {
				continue
			}
			bit := logic.BitMask(i)
			obj, ok := g.findObjective(i)
			if !ok {
				needPhase2 = append(needPhase2, r)
				alive = alive.AndNot(bit)
				continue
			}
			g.st.AssignPI(obj.Input, g.decisionValue(obj.Value), bit)
			decided = decided.Or(bit)
			r.res.Decisions++
			g.stats.Decisions++
			progress = true
		}
		if !progress {
			break
		}

		conf = g.implyCounted()
		if newConf := conf.And(alive); !newConf.IsZero() {
			for i, r := range batch {
				if !newConf.Bit(i) {
					continue
				}
				if decided.Bit(i) {
					// The conflict may stem from a wrong decision: this is
					// exactly the situation in which the paper passes over to
					// APTPG instead of backtracking inside FPTPG.
					needPhase2 = append(needPhase2, r)
				} else {
					g.markRedundant(r, PhaseFPTPG)
				}
			}
			alive = alive.AndNot(newConf)
		}
	}

	// Whatever is still alive after the iteration limit goes to APTPG.
	for i, r := range batch {
		if alive.Bit(i) {
			needPhase2 = append(needPhase2, r)
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
// UnjustifiedWord scan per plane word serves all its levels.  Each
// (net, level) requirement becomes the key cost<<32 | OrderPos(net) in
// objKeys[level] — costs saturate at testability.MaxMeasure = 2^28, so the
// key fits — and each level's keys are sorted once.  The order is valid
// until the next ForwardSim; input assignments in between do not change it.
func (g *Generator) orderObjectives(levels logic.Mask) {
	for w, lw := range levels {
		if lw == 0 {
			continue
		}
		nets, miss := g.st.UnjustifiedWord(w)
		for m := lw; m != 0; m &= m - 1 {
			lvl := w*logic.WordWidth + bits.TrailingZeros64(m)
			g.objKeys[lvl] = g.objKeys[lvl][:0]
		}
		for i, net := range nets {
			pos := uint64(g.c.OrderPos(net))
			for m := miss[i] & lw; m != 0; m &= m - 1 {
				lvl := w*logic.WordWidth + bits.TrailingZeros64(m)
				g.objKeys[lvl] = append(g.objKeys[lvl], uint64(g.objectiveCost(net, lvl))<<32|pos)
			}
		}
		for m := lw; m != 0; m &= m - 1 {
			slices.Sort(g.objKeys[w*logic.WordWidth+bits.TrailingZeros64(m)])
		}
	}
}

// objectiveNet returns the net of an orderObjectives key.
func (g *Generator) objectiveNet(key uint64) circuit.NetID {
	return g.c.TopoOrder()[uint32(key)]
}

// findObjective returns a primary input assignment helping to justify some
// requirement that is still unjustified at the given bit level, preferring
// the cheapest requirement.  orderObjectives must have ordered the level
// since the last ForwardSim.
func (g *Generator) findObjective(level int) (backtrace.Objective, bool) {
	for _, key := range g.objKeys[level] {
		net := g.objectiveNet(key)
		if obj, ok := backtrace.Backtrace(g.st, g.tm, net, g.st.ReqGet(net, level), level); ok {
			return obj, true
		}
	}
	return backtrace.Objective{}, false
}

// findObjectives collects up to max distinct primary input objectives from
// the unjustified requirements of the given bit level, in the same
// cheapest-first order as findObjective; APTPG enumerates all their value
// combinations at once.  The returned slice is a generator-owned scratch
// buffer, valid until the next call.
//
//atpgvet:scratch
func (g *Generator) findObjectives(level, max int) []backtrace.Objective {
	objs := g.objs[:0]
keys:
	for _, key := range g.objKeys[level] {
		if len(objs) >= max {
			break
		}
		net := g.objectiveNet(key)
		obj, ok := backtrace.Backtrace(g.st, g.tm, net, g.st.ReqGet(net, level), level)
		if !ok {
			continue
		}
		for _, o := range objs {
			if o.Input == obj.Input {
				continue keys
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
	enumIdx    int
	flipped    bool
}

// runAPTPG handles one hard fault: the fault is flattened onto the run's
// WordWidth bit levels, up to log2(width) backtrace-selected inputs are
// enumerated in parallel (one value combination per bit level) and any
// further decisions are made conventionally with chronological backtracking
// on all levels at once.  MaxBacktracks bounds the search, after which the
// fault is Aborted.
func (g *Generator) runAPTPG(ctx context.Context, r *rec) {
	g.stats.APTPGFaults++
	if !g.sensitizeRec(r) {
		g.markAborted(r, PhaseAPTPG)
		return
	}
	width := g.opts.WordWidth
	maxEnum := enumInputs(width)
	// The enumeration distinguishes at most 2^maxEnum value combinations;
	// bit levels beyond that replay duplicates of the first 2^maxEnum (see
	// enumWord), so the active mask is narrowed to the alternatives the
	// search can actually tell apart.  APTPG cost thus tracks the real
	// alternative count, not the (possibly much wider) group width — wide
	// multi-word groups pay their width in the fault-parallel phase, where
	// the sharing is, and drop back to the efficient word here.
	if ew := 1 << uint(maxEnum); ew < width {
		width = ew
	}
	// A narrowed search fits one machine word: run it on the dedicated
	// single-word state, whose planes are stored contiguously, instead of
	// striding word 0 of the wide state's multi-word windows.  The search is
	// self-contained between Reset and the final Undo sweep, so swapping the
	// state pointer for the duration is safe.
	if g.aptpgSt != nil && width <= logic.WordWidth {
		wide := g.st
		g.st = g.aptpgSt
		defer func() { g.st = wide }()
	}
	active := logic.LevelsMask(width)
	g.st.Reset(active)
	for _, a := range r.cond.Assignments {
		g.st.AddRequirement(a.Net, a.Value, active)
	}
	pathIn := r.fault.Path.Input()
	launch := g.launchValue(r.fault.Transition)
	g.st.AssignPI(pathIn, launch, active)

	if conf := g.implyCounted(); conf == active {
		// Conflict on every level with no optional assignment: redundant.
		g.markRedundant(r, PhaseAPTPG)
		return
	}

	var decisions []decision
	enumCount := 0
	backtracks := 0 // backtracks spent on the fault in this pass
	var deadMask logic.Mask
	sawStuck := false

	// The incremental engine backtracks over the assignment trail: every
	// decision opens a frame (implic.State.Assign) whose Undo restores the
	// exact pre-decision closure and simulation.  The full-sweep oracle has
	// no trail and rebuilds the remaining decisions from scratch instead.
	useTrail := !g.opts.FullSweepImplic
	if useTrail {
		// Every exit from the search (test emitted, redundancy proof, budget
		// exhaustion, cancellation) must close the frames it opened: a frame
		// leaked across faults makes a later backtrack restore another
		// fault's state, which surfaces as an equivalence failure much later.
		defer func() {
			for g.st.Depth() > 0 {
				g.st.Undo()
			}
		}()
	}

	rebuild := func() {
		g.st.ClearPI(active)
		g.st.AssignPI(pathIn, launch, active)
		for _, d := range decisions {
			if d.enumerated {
				g.st.AssignPIWord(d.input, g.enumWord(d.enumIdx, width))
			} else {
				g.st.AssignPI(d.input, g.decisionValue(d.value), active)
			}
		}
		g.implyCounted()
		deadMask = logic.Mask{}
	}

	maxSteps := 64 * (g.opts.MaxBacktracks + 4) * (len(g.c.Inputs()) + 4)
	for step := 0; step < maxSteps; step++ {
		// The step loop can run long on hard faults; poll the context every
		// few steps so cancellation stays responsive without a per-step lock.
		if step&15 == 0 && ctx.Err() != nil {
			return
		}
		g.st.ForwardSim()
		aliveMask := active.AndNot(g.st.ConflictMask()).AndNot(deadMask)
		if just := g.st.JustifiedMask().And(aliveMask); !just.IsZero() {
			lvl := just.TrailingZeros()
			if g.emitTest(r, lvl, PhaseAPTPG) {
				return
			}
			deadMask = deadMask.Or(logic.BitMask(lvl))
			sawStuck = true
			continue
		}

		if aliveMask.IsZero() {
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
					if useTrail {
						g.st.Undo()
					}
					last.flipped = true
					last.value = last.value.Not()
					if useTrail {
						g.st.Assign()
						g.st.AssignPI(last.input, g.decisionValue(last.value), active)
					}
					flipped = true
					break
				}
				if last.enumerated {
					enumCount--
				}
				if useTrail {
					g.st.Undo()
				}
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
			if useTrail {
				g.implyCounted()
				deadMask = logic.Mask{}
			} else {
				rebuild()
			}
			continue
		}

		// Make new decisions, guided by the lowest still-alive level.  While
		// the enumeration budget of log2(L) inputs lasts, several backtrace
		// objectives are collected at once and all their value combinations
		// are examined with a single bit-parallel implication, as described
		// in Section 3.2 of the paper.  Beyond the budget, decisions are
		// conventional: one input, one value on all levels.
		lvl := aliveMask.TrailingZeros()
		g.orderObjectives(logic.BitMask(lvl))
		if enumCount < maxEnum {
			objs := g.findObjectives(lvl, maxEnum-enumCount)
			if len(objs) == 0 {
				deadMask = deadMask.Or(logic.BitMask(lvl))
				sawStuck = true
				continue
			}
			for _, obj := range objs {
				r.res.Decisions++
				g.stats.Decisions++
				decisions = append(decisions, decision{input: obj.Input, enumerated: true, enumIdx: enumCount})
				if useTrail {
					g.st.Assign()
				}
				g.st.AssignPIWord(obj.Input, g.enumWord(enumCount, width))
				enumCount++
			}
		} else {
			obj, ok := g.findObjective(lvl)
			if !ok {
				deadMask = deadMask.Or(logic.BitMask(lvl))
				sawStuck = true
				continue
			}
			r.res.Decisions++
			g.stats.Decisions++
			decisions = append(decisions, decision{input: obj.Input, value: obj.Value})
			if useTrail {
				g.st.Assign()
			}
			g.st.AssignPI(obj.Input, g.decisionValue(obj.Value), active)
		}
		g.implyCounted()
	}
	g.markAborted(r, PhaseAPTPG)
}

// enumInputs is the number of primary inputs APTPG enumerates in parallel
// at the given width: log2(width), capped at the machine word's log2(64) = 6,
// the paper's limit.  Alternative enumeration beyond one machine word pays
// the multi-word plane cost on every implication of a single-fault search,
// which measures as a loss, so widths above 64 keep their width for the
// fault-parallel phase but enumerate alternatives one word at a time.
func enumInputs(width int) int {
	return min(log2(width), log2(logic.WordWidth))
}

// enumWord builds the per-level assignment word of the idx-th enumerated
// input at the given word width: bit level j receives value bit idx of j, so
// across the active levels all combinations of the enumerated inputs appear.
func (g *Generator) enumWord(idx, width int) logic.Word7V {
	one := g.decisionValue(logic.One3)
	zero := g.decisionValue(logic.Zero3)
	var w logic.Word7V
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
	inputs := g.c.Inputs()
	raw = pattern.NewPair(len(inputs))
	for i, in := range inputs {
		v7 := g.st.PIGet(in, level)
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
		for i, in := range inputs {
			if in == r.fault.Path.Input() {
				raw.V2[i] = r.fault.Transition.FinalValue3()
				raw.V1[i] = raw.V2[i].Not()
			}
		}
	}
	return raw.FillX(fillValue), raw
}

// emitTest extracts, verifies and records a test for the fault from the
// given bit level.  It returns false (and leaves the fault pending) when the
// verification rejects the pattern.
func (g *Generator) emitTest(r *rec, level int, phase Phase) bool {
	p, raw := g.extractPattern(r, level)
	if !g.verifyPattern(r.fault, p) {
		return false
	}
	idx := g.testSet.Len()
	if g.opts.EmitUnfilled {
		g.testSet.AddUnfilled(p, raw, r.fault.Describe(g.c))
	} else {
		g.testSet.Add(p, r.fault.Describe(g.c))
	}
	if g.OnPattern != nil {
		g.OnPattern(p)
	}
	r.res.Status = Tested
	r.res.Phase = phase
	r.res.Test = p
	r.res.PatternIndex = idx
	g.stats.Tested++
	g.stats.Patterns++
	g.newPatterns++
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
	g.stats.Redundant++
	if g.opts.SubpathPruning && phase != PhasePruning {
		g.recordRedundantPrefix(r)
	}
	g.settle(r)
}

func (g *Generator) markAborted(r *rec, phase Phase) {
	r.res.Status = Aborted
	r.res.Phase = phase
	g.stats.Aborted++
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
		g.OnSettle(*r.res)
	}
}

// ---------------------------------------------------------------------------
// Interleaved fault simulation.
// ---------------------------------------------------------------------------

// maybeSimulate drops still-pending faults that are already detected by
// existing patterns.  Patterns imported from other workers of a sharded run
// are simulated whenever they arrive (and kept in the foreign buffer for the
// claim-time sweep of later units); the generator's own patterns are
// simulated after every FaultSimInterval of them, as the paper does after
// every L generated patterns.
func (g *Generator) maybeSimulate(recs []*rec) {
	if g.opts.FaultSimInterval <= 0 {
		return
	}
	if g.ImportPatterns != nil {
		if foreign := g.ImportPatterns(); len(foreign) > 0 {
			g.foreign = append(g.foreign, foreign...)
			g.dropDetected(recs, foreign, -1)
		}
	}
	if g.newPatterns < g.opts.FaultSimInterval {
		return
	}
	g.newPatterns = 0
	base := g.lastSimmed
	pairs := g.testSet.Pairs[base:]
	g.lastSimmed = g.testSet.Len()
	g.dropDetected(recs, pairs, base)
}

// dropDetected fault-simulates the pairs against every still-pending fault
// and settles the detected ones as DetectedBySim.  base is the test-set
// index of pairs[0]; a negative base marks foreign patterns that have no
// index in this generator's test set (PatternIndex stays -1 and is
// reconciled against the merged set by the sharded orchestrator).  A batch
// the simulator cannot load stops the dropping and is recorded in Err.
func (g *Generator) dropDetected(recs []*rec, pairs []pattern.Pair, base int) {
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
			if mask := g.sim.Detects(r.fault, robust); mask != 0 {
				r.res.Status = DetectedBySim
				r.res.Phase = PhaseSimulation
				if base >= 0 {
					r.res.PatternIndex = base + start + bits.TrailingZeros64(mask)
				}
				g.stats.DetectedBySim++
				g.settle(r)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Subpath redundancy pruning.
// ---------------------------------------------------------------------------

// pruneIfKnownRedundant checks whether the fault contains a subpath already
// proved unsensitizable and, if so, marks it redundant without any search.
func (g *Generator) pruneIfKnownRedundant(r *rec) bool {
	if len(g.redundantPrefixes) == 0 {
		return false
	}
	key := prefixKeyBuilder(r.fault.Transition)
	for i, net := range r.fault.Path.Nets {
		key.add(net)
		if i == 0 {
			continue
		}
		if g.redundantPrefixes[key.String()] {
			g.markRedundant(r, PhasePruning)
			g.stats.PrunedRedundant++
			return true
		}
	}
	return false
}

// recordRedundantPrefix finds the shortest prefix of the redundant fault's
// path whose sensitization requirements are already contradictory, and
// records it so later faults sharing the prefix are pruned, exactly as in
// the Figure 1 discussion of the paper ("all paths containing this subpath
// are proved to be redundant, too").
//
// The candidate lengths are tested bit-parallel on the one-word prune state:
// bit level k carries the conditions of one candidate length (the
// assignments with Pos below it) plus the launch, so one implication tests up
// to 64 lengths.  Requirements grow with the length, so the conflicting
// levels are a suffix of the candidates and the lowest one is the shortest
// conflicting prefix.  A path of at most 65 nets is settled in one round,
// level k carrying length k+2; a longer one spreads 64 lengths over the open
// range and narrows the range 64 times per round.
func (g *Generator) recordRedundantPrefix(r *rec) {
	if !r.sensOK {
		return
	}
	nets := r.fault.Path.Nets
	launch := g.launchValue(r.fault.Transition)
	var lengths [logic.WordWidth]int
	// Once a round has found a conflict, hi is the shortest conflicting
	// length seen and the shortest of all lies in [lo, hi]; every round
	// tests hi again, so a round without a conflict is the first one.
	lo, hi := 2, len(nets)
	if hi < lo {
		return
	}
	for {
		n := hi - lo + 1
		levels := min(n, logic.WordWidth)
		for k := 0; k < levels; k++ {
			lengths[k] = lo + (k+1)*n/levels - 1
		}
		all := logic.LevelsMask(levels)
		g.pruneSt.Reset(all)
		for _, a := range r.cond.Assignments {
			// The assignment belongs to every candidate longer than its
			// position: the levels from the first such length upwards.
			k, _ := slices.BinarySearch(lengths[:levels], int(a.Pos)+1)
			if k < levels {
				g.pruneSt.AddRequirement(a.Net, a.Value, all.AndNot(logic.LevelsMask(k)))
			}
		}
		g.pruneSt.AssignPI(r.fault.Path.Input(), launch, all)
		conf := g.pruneSt.Imply()
		if conf.IsZero() {
			return // the conflict needs the whole path plus implications elsewhere
		}
		k := conf.TrailingZeros()
		if k > 0 {
			lo = lengths[k-1] + 1
		}
		hi = lengths[k]
		if lo == hi {
			break
		}
	}
	key := prefixKeyBuilder(r.fault.Transition)
	for i := 0; i < hi; i++ {
		key.add(nets[i])
	}
	g.redundantPrefixes[key.String()] = true
}
