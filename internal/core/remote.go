package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// This file is the core's half of the distributed engine (internal/service):
// the worker side processes single work units shipped over the wire
// (ProcessRemoteUnit), the coordinator side drives the same pass as
// RunSharded but hands the units to a dispatch callback instead of local
// goroutines (RemoteRun), and the client side folds a finished remote run
// back into a local generator (ImportRemoteRun).
//
// The determinism contract is the one RunSharded already guarantees: a unit's
// outcome under FaultSimInterval == 0 is a pure function of (circuit,
// options, unit faults) — the search never looks at any other
// fault's state — and the merged test set is reassembled in canonical fault
// input order.  Because unit outcomes are pure, processing a unit more than
// once (a lease requeued after a worker died, with the original worker's
// result arriving late) yields the same outcome, and RemoteRun.Apply is
// first-write-wins per fault, so at-least-once dispatch cannot change any
// classification.  With the interleaved simulation on, outcomes additionally
// depend on which patterns arrived before the claim, so — exactly as across
// local workers — only the Redundant set is stable: a covered fault may
// read Tested or DetectedBySim, and a fault one run aborts may be dropped
// by another fault's test in another.

// RemoteOutcome is the outcome of one fault of a remotely processed work
// unit, as reported back by a worker.  It carries everything the coordinator
// needs for the canonical merge; pattern indices are deliberately absent
// (worker-local test-set indices mean nothing on the coordinator — the
// merge assigns indices in fault input order, and simulation drops are
// reconciled against the final merged set).
type RemoteOutcome struct {
	Status Status
	Phase  Phase

	// Decisions and Backtracks are the search effort the worker spent on the
	// fault.
	Decisions  int
	Backtracks int

	// Test is the verified two-vector test of a Tested fault.  Raw is its
	// X-preserving pre-fill form when the options track unfilled patterns
	// (Options.EmitUnfilled, needed by merge-level compaction); otherwise it
	// is empty.
	Test pattern.Pair
	Raw  pattern.Pair
}

// ProcessRemoteUnit is the worker side of a distributed run: it processes one
// work unit — the exact sched.Group cut the coordinator's pass produced —
// under the generator's own options and returns one outcome per fault, in
// unit order, and the search effort the unit took.  foreign carries the
// tests the coordinator delivered on the lease reply: those of the tested
// outcomes other workers reported since this worker's previous lease.  They
// join the generator's pattern pool, and as in a local sharded run the pool
// is swept against the unit's faults at claim time, so a fault another
// worker's pattern already detects is dropped without a search.  Faults left
// Pending by a canceled ctx come back Pending; callers drop such a unit
// rather than report it.
//
// The generator must be dedicated to one job (same circuit and options as
// the coordinator's master).  Its pool accumulates the patterns of the units
// it processed and the foreign ones, and feeds only its own claim sweep: the
// other workers get its tests from the coordinator, which publishes the
// outcomes it applies.  Its statistics count one unit at a time: the caller
// reports the returned effort to the coordinator (RemoteRun.AddEffort).
func (g *Generator) ProcessRemoteUnit(ctx context.Context, faults []paths.Fault, foreign []pattern.Pair) ([]RemoteOutcome, Effort) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	g.stats = Stats{}

	_, recs := newRecs(faults)
	g.pool.add(foreign...)
	g.claimSweep(recs)
	g.processUnit(ctx, recs)

	g.stats.GenerateTime = time.Since(start) - g.stats.SensitizeTime

	out := make([]RemoteOutcome, len(recs))
	for i, r := range recs {
		o := RemoteOutcome{
			Status:     r.res.Status,
			Phase:      r.res.Phase,
			Decisions:  r.res.Decisions,
			Backtracks: r.res.Backtracks,
		}
		if r.res.Status == Tested {
			o.Test = r.res.Test
			if r.raw != nil {
				o.Raw = *r.raw
			}
		}
		out[i] = o
	}
	return out, g.stats.Effort
}

// RemoteRun is the coordinator side of a distributed run: the same pipeline
// as RunSharded — pass cutting, canonical merge, drop reconciliation, static
// compaction — with the unit processing replaced by a dispatch callback.
// The caller (internal/service) owns the transport: it leases the units of
// the pass to workers, feeds their reported outcomes to Apply, and returns
// from dispatch once every unit of the pass has been applied.
//
// Apply and AddEffort are safe for concurrent use with each other, but the
// caller must not let them race the end of the pass: every Apply must
// complete (happen before) dispatch returning — the service coordinator
// serializes completions under its per-job mutex and acquires that mutex
// once more after the pass's lease queue drains, which is exactly that
// barrier.
type RemoteRun struct {
	master  *Generator
	faults  []paths.Fault
	results []FaultResult
	recs    []*rec

	mu sync.Mutex
}

// NewRemoteRun prepares a distributed run of the faults on the master
// generator.  The master carries the circuit, the options, the accumulated
// test set and the statistics, exactly as for a local run; its OnSettle
// callback is invoked from Apply as faults settle.
func NewRemoteRun(master *Generator, faults []paths.Fault) *RemoteRun {
	results, recs := newRecs(faults)
	return &RemoteRun{master: master, faults: faults, results: results, recs: recs}
}

// Apply folds one processed unit's outcomes into the run: unit holds the
// fault indices (into the run's fault slice) of the dispatched unit, and
// outcomes the worker's report in the same order.  Application is
// first-write-wins per fault — a duplicate report for an already settled
// fault (the at-least-once case: lease requeue plus a late original result)
// is a no-op, which keeps every classification the first reported one.
// A Pending outcome only accumulates the search effort; Run sweeps the fault
// up.  The master's OnSettle fires for every newly settled fault; the
// indices of those faults are returned.
func (rr *RemoteRun) Apply(unit []int, outcomes []RemoteOutcome) []int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	var settled []int
	for i, fi := range unit {
		if i >= len(outcomes) || fi < 0 || fi >= len(rr.recs) {
			continue
		}
		o := outcomes[i]
		r := rr.recs[fi]
		if r.res.Status != Pending {
			continue // first write wins: a requeued duplicate changes nothing
		}
		r.res.Decisions += o.Decisions
		r.res.Backtracks += o.Backtracks
		if o.Status == Pending {
			continue
		}
		r.res.Status = o.Status
		r.res.Phase = o.Phase
		if o.Status == Tested {
			r.res.Test = o.Test
			if o.Raw.Len() > 0 {
				r.raw = &pattern.Pair{V1: o.Raw.V1, V2: o.Raw.V2}
			}
		}
		rr.master.settle(r)
		settled = append(settled, fi)
	}
	return settled
}

// AddEffort folds the search effort a worker reported into the master's
// statistics.  The classifications are counted once, from the run's final
// results, so duplicated effort from an at-least-once requeue can at worst
// overstate the effort counters, never the results.
func (rr *RemoteRun) AddEffort(e Effort) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	rr.master.stats.Effort.Add(e)
}

// Run drives the distributed run: it cuts the pass into work units exactly
// like a local run and hands them to dispatch, which must not return before
// every unit of the pass has been processed and applied (see the
// synchronization contract on RemoteRun).  dispatch returns the pass's
// dispatch counters, which Run adds to the master's Stats.Sched as
// RunSharded adds its scheduler's.  After the pass it ends exactly like
// RunSharded (see mergeRun), on the master's simulator.  The results are
// input-ordered: result i belongs to fault i.
func (rr *RemoteRun) Run(ctx context.Context, dispatch func(units []sched.Unit) sched.Stats) []FaultResult {
	if ctx == nil {
		ctx = context.Background()
	}
	m := rr.master
	if len(rr.recs) > 0 && ctx.Err() == nil {
		m.stats.Sched.Add(dispatch(m.opts.cut(len(rr.recs))))
	}
	m.mergeRun(ctx, []*faultsim.Simulator{m.sim}, rr.faults, rr.results, rr.recs)
	return rr.results
}

// ImportRemoteRun is the client side of a distributed run: it folds the
// coordinator's final results, merged test set and statistics into this
// generator, as if the generator had run the faults itself.  The set is
// appended to the generator's accumulated test set and the returned results
// have their pattern indices rebased onto it; the input slices are not
// mutated.  Later local runs on the same generator compose as usual
// (patterns accumulate, and a run's workers never simulate an earlier run's
// patterns).
func (g *Generator) ImportRemoteRun(results []FaultResult, set *pattern.Set, stats Stats) []FaultResult {
	base := g.testSet.Len()
	if set != nil {
		g.testSet.Append(set)
	}
	g.stats.Add(stats)
	out := make([]FaultResult, len(results))
	copy(out, results)
	for i := range out {
		if out[i].PatternIndex >= 0 {
			out[i].PatternIndex += base
		}
	}
	return out
}
