package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sensitize"
)

// RunSharded generates tests for the faults and returns one result per
// fault, in the same order, spreading the work across workers goroutines:
// core-level parallelism on top of the paper's word-level bit parallelism.
// Each worker is a generator with master's options over the shared
// immutable circuit, consuming work units (word-parallel fault groups) from
// a shared scheduler (internal/sched).  Worker 0 runs on the master's
// implication states and simulator, which the master leaves idle during the
// run; the others allocate their own.  Every worker starts on one contiguous
// run of units, the classic shard split, and an idle worker steals queued
// units from the most loaded peer, so clustered hard faults do not
// serialize on one worker.  A run of one worker is the paper's sequential
// generator: it owns every record and drops detected faults after every
// FaultSimInterval patterns.  With several workers and the interleaved
// simulation enabled, the workers share the run's pattern pool, so a
// pattern emitted by one worker still drops detected faults claimed later
// by the others.
//
// Every run ends the same way, whatever its worker count (see mergeRun):
// the test set is appended in canonical fault order, so it does not depend
// on the worker count or the steal interleaving, simulation drops are
// reconciled against it, and with Options.Compaction it is statically
// compacted, with the PatternIndex of every covered fault remapped onto the
// compacted set.  master's OnSettle callback is invoked as faults settle,
// serialized by a mutex but in a nondeterministic interleaving across
// workers; the results it sees carry PatternIndex -1, as the merge has not
// happened yet.  Statistics are summed over the workers, so the time fields
// report aggregate CPU time rather than wall-clock time.  master must not be
// used concurrently with RunSharded.
//
// The context bounds the run: when it is canceled or its deadline expires,
// generation stops at the next check point and every fault that has not
// settled yet is returned as Aborted with the cancellation cause in its Err
// field.  Callers that need to distinguish a canceled run from a completed
// one inspect ctx.Err (or context.Cause) after RunSharded returns.
func RunSharded(ctx context.Context, master *Generator, faults []paths.Fault, workers int) []FaultResult {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = max(min(workers, len(faults)), 1)

	var settleMu sync.Mutex
	settle := master.OnSettle

	var run *pool
	if master.opts.FaultSimInterval > 0 {
		run = new(pool)
	}

	// The run's tail simulates on all the workers' simulators.
	gens := make([]*Generator, workers)
	sims := make([]*faultsim.Simulator, workers)
	for w := 0; w < workers; w++ {
		var g *Generator
		if w == 0 {
			g = master.lend()
		} else {
			g = New(master.c, master.opts)
		}
		g.pool = run
		sims[w] = g.sim
		if settle != nil {
			g.OnSettle = func(i int, r FaultResult) {
				settleMu.Lock()
				defer settleMu.Unlock()
				settle(i, r)
			}
		}
		gens[w] = g
	}

	results, recs := newRecs(faults)

	sc := sched.New(workers)
	sc.Load(master.opts.cut(len(recs)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := gens[w]
			start := time.Now()
			g.consume(ctx, sc, w, recs)
			g.stats.GenerateTime = time.Since(start) - g.stats.SensitizeTime
		}(w)
	}
	wg.Wait()
	master.stats.Sched.Add(sc.Stats())
	for _, g := range gens {
		master.absorbState(g)
	}
	master.mergeRun(ctx, sims, faults, results, recs)
	return results
}

// mergeRun ends a run, local or remote, once its units are processed: it
// sweeps up the faults still pending (carrying the cancellation cause when
// ctx ended the run), appends the run's tests to g's test set in canonical
// fault order, reconciles the simulation drops against them, statically
// compacts the run's patterns on sims, the simulators of the run's workers
// (skipped when the run was cut short: a canceled run should return
// promptly, and its test set is not final anyway), and counts the run's
// final classifications into g's statistics.
//
// The merge walks the records by fault input index and appends every Tested
// fault's test, with its X-preserving form when the options track it, so
// the merged set is a pure function of the per-fault outcomes: independent
// of the worker count, of which worker processed which unit, of lease
// requeues and of result arrival order.  Each target description is
// rendered here, once.
//
//atpgvet:deterministic
func (g *Generator) mergeRun(ctx context.Context, sims []*faultsim.Simulator, faults []paths.Fault, results []FaultResult, recs []*rec) {
	g.finish(ctx, recs)
	base := g.testSet.Len()
	for _, r := range recs {
		if r.res.Status != Tested {
			continue
		}
		r.res.PatternIndex = g.testSet.Len()
		target := r.fault.Describe(g.c)
		if g.opts.EmitUnfilled && r.raw != nil {
			g.testSet.AddUnfilled(r.res.Test, *r.raw, target)
		} else {
			g.testSet.Add(r.res.Test, target)
		}
	}
	g.reconcileDrops(sims, results, base)
	if ctx.Err() == nil {
		g.compactRun(sims, faults, results, base)
	}
	g.stats.tally(results)
}

// reconcileDrops resolves the classifications that depend on the run's
// final test set, with one parallel-pattern simulation pass:
//
//   - Faults dropped by the interleaved simulation carry no pattern index;
//     they get the index of the first of the run's merged patterns that
//     detects them.
//
//   - While the interleaved simulation is active, faults the search proved
//     Redundant but the final set demonstrably detects are reported
//     DetectedBySim.  The two classifications can genuinely coexist: the
//     search's sensitization conditions under-approximate the simulator's
//     detection criterion (e.g. XOR-rich paths, where the search fixes the
//     transition polarity along the path while the simulator accepts any
//     polarity), so whether such a fault was dropped or searched first used
//     to depend on pattern arrival order — across workers, a race.  Anchoring
//     the class to the final set makes the outcome independent of the
//     dispatch interleaving; the evidence (a concrete detecting pattern)
//     takes precedence over the narrower proof.  OnSettle may have reported
//     such a fault Redundant when it settled; the returned results are the
//     authoritative classification, as with the post-settle pattern-index
//     remapping of compaction.
//
// The pass simulates only the run's patterns, from index base of the test
// set on: a fault of one run is never credited to an earlier run's tests.
// It runs on sims, the simulators of the run's workers (see
// faultsim.RunOn).
func (g *Generator) reconcileDrops(sims []*faultsim.Simulator, results []FaultResult, base int) {
	var idx []int
	for i := range results {
		switch {
		case results[i].Status == DetectedBySim && results[i].PatternIndex < 0:
			idx = append(idx, i)
		case results[i].Status == Redundant && g.opts.FaultSimInterval > 0:
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 || g.testSet.Len() == base {
		return
	}
	checked := make([]paths.Fault, len(idx))
	for i, j := range idx {
		checked[i] = results[j].Fault
	}
	sim, err := faultsim.RunOn(sims, g.testSet.Pairs[base:], checked, g.opts.Mode == sensitize.Robust)
	if err != nil {
		g.fail(fmt.Errorf("core: reconciling simulation drops: %w", err))
		return
	}
	for i, j := range idx {
		first := sim.DetectedBy[i]
		if first < 0 {
			continue
		}
		r := &results[j]
		if r.Status == Redundant {
			r.Status = DetectedBySim
			r.Phase = PhaseSimulation
		}
		r.PatternIndex = base + first
	}
}

// pool is a run's append-only pattern pool: its workers add the tests they
// emit, and the claim sweeps and the one-worker interval simulation read
// it.  A pattern is never changed once added, so a slice read under the
// lock stays valid after it is released.  A nil pool, the run's while the
// simulation is off, holds nothing.
type pool struct {
	mu    sync.Mutex
	pairs []pattern.Pair
}

func (p *pool) add(pairs ...pattern.Pair) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pairs = append(p.pairs, pairs...)
}

// since returns the patterns added after the first n.
func (p *pool) since(n int) []pattern.Pair {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pairs[n:]
}
