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

// RunSharded generates tests for the faults like Generator.Run, but spreads
// the work across workers goroutines, multiplying the paper's word-level bit
// parallelism by core-level parallelism.  Each worker is an independent
// generator with master's options over the shared immutable circuit,
// consuming work units (word-parallel fault groups) from a shared scheduler
// (internal/sched).  Every worker starts on one contiguous run of units, the
// classic shard split, and an idle worker steals queued units from the most
// loaded peer, so clustered hard faults do not serialize on one worker.
// When the interleaved fault simulation is enabled, workers exchange their
// verified patterns through a shared buffer, so a pattern emitted by one
// worker still drops detected faults on the others.
//
// The merged result slice is deterministic and input-ordered: result i
// belongs to faults[i].  Pattern indices refer to the merged test set, which
// is reassembled in canonical fault order — the pattern of a Tested fault
// appears at the position its fault's input index dictates, regardless of
// which worker generated it or in which order — so the merged set does not
// depend on the steal interleaving.  Faults dropped by a foreign worker's
// pattern get the index of the first pattern of the merged set that detects
// them.  master's OnSettle callback is invoked as
// faults settle, serialized by a mutex but in a nondeterministic
// interleaving across workers; its OnPattern and ImportPatterns hooks are
// not used.  Statistics are summed over the workers, so the time fields
// report aggregate CPU time rather than wall-clock time.
//
// When Options.Compaction is enabled, the merged test set of the run is
// statically compacted once after the deterministic merge (reverse-order
// fault simulation and, at compact.Full, compatible-pair merging), and the
// PatternIndex of every covered fault is remapped onto the compacted set.
// Compaction applies equally to the workers <= 1 path, so the sequential
// and sharded engines stay comparable.
//
// With workers <= 1 (or a single fault) the call is exactly master.Run.
// master must not be used concurrently with RunSharded.
func RunSharded(ctx context.Context, master *Generator, faults []paths.Fault, workers int) []FaultResult {
	if workers > len(faults) {
		workers = len(faults)
	}
	base := master.testSet.Len()
	if workers <= 1 {
		results := master.Run(ctx, faults)
		if ctx == nil || ctx.Err() == nil {
			master.compactRun([]*faultsim.Simulator{master.sim}, faults, results, base)
		}
		return results
	}
	if ctx == nil {
		ctx = context.Background()
	}

	var settleMu sync.Mutex
	settle := master.OnSettle

	var x *exchange
	if master.opts.FaultSimInterval > 0 {
		x = newExchange(workers)
	}

	// Worker 0 runs on the master's own implication states and simulator,
	// which the master leaves idle until the workers are done; the others
	// allocate their own.  The run's tail simulates on all the workers'
	// simulators.
	gens := make([]*Generator, workers)
	sims := make([]*faultsim.Simulator, workers)
	for w := 0; w < workers; w++ {
		var g *Generator
		if w == 0 {
			g = master.lend()
		} else {
			g = New(master.c, master.opts)
		}
		sims[w] = g.sim
		if settle != nil {
			g.OnSettle = func(i int, r FaultResult) {
				settleMu.Lock()
				defer settleMu.Unlock()
				settle(i, r)
			}
		}
		if x != nil {
			id := w
			g.OnPattern = func(p pattern.Pair) { x.publish(id, p) }
			g.ImportPatterns = func() []pattern.Pair { return x.fetch(id) }
		}
		gens[w] = g
	}

	results, recs := newRecs(faults)
	master.stats.Faults += len(faults)

	sc := sched.New(workers)
	sc.Load(master.opts.cut(len(recs)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := gens[w]
			start := time.Now()
			sensAtStart := g.stats.SensitizeTime
			g.consume(ctx, sc, w, recs)
			g.stats.GenerateTime += time.Since(start) - (g.stats.SensitizeTime - sensAtStart)
		}(w)
	}
	wg.Wait()
	master.stats.Sched.Add(sc.Stats())

	master.finish(ctx, recs)
	mergeResults(master, gens, recs, results)
	master.reconcileDrops(sims, results)

	// Static compaction of the merged set, once, after the deterministic
	// merge (skipped when the run was cut short: a canceled run should
	// return promptly, and its test set is not final anyway).
	if ctx.Err() == nil {
		master.compactRun(sims, faults, results, base)
	}
	return results
}

// mergeResults reassembles the workers' output on the master, in canonical
// fault order: walking the results by fault input index, every Tested
// fault's pattern is appended to the master set (so the merged set's order
// is a pure function of the per-fault outcomes, independent of the dispatch
// interleaving), and the worker-local PatternIndex of every covered fault is
// remapped onto the merged set.  Cross-worker simulation drops keep index -1
// here and are reconciled by reconcileDrops.  Worker statistics and errors
// are absorbed into the master.
//
//atpgvet:deterministic
func mergeResults(master *Generator, gens []*Generator, recs []*rec, results []FaultResult) {
	type patKey struct{ worker, index int }
	remap := make(map[patKey]int)
	for i := range results {
		r := &results[i]
		if r.Status == Tested && r.PatternIndex >= 0 {
			k := patKey{recs[i].worker, r.PatternIndex}
			mi := master.testSet.AddFrom(gens[k.worker].testSet, k.index)
			remap[k] = mi
			r.PatternIndex = mi
		}
	}
	for i := range results {
		r := &results[i]
		if r.Status != DetectedBySim || r.PatternIndex < 0 {
			continue
		}
		if mi, ok := remap[patKey{recs[i].worker, r.PatternIndex}]; ok {
			r.PatternIndex = mi
		} else {
			// Unreachable while every worker pattern belongs to a Tested
			// fault; fail safe to the foreign-drop reconciliation.
			r.PatternIndex = -1
		}
	}
	for _, g := range gens {
		master.absorbState(g)
	}
	// Merged patterns are final results of a completed run: they must not be
	// re-simulated by a later sequential Run on master.
	master.lastSimmed = master.testSet.Len()
	master.newPatterns = 0
}

// reconcileDrops resolves the classifications that depend on the run's
// final test set, with one parallel-pattern simulation pass:
//
//   - Faults dropped by a foreign worker's pattern carry no index into any
//     worker-local set; they get the index of the first pattern of the
//     merged set that detects them.
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
// The pass runs on sims, the simulators of the run's workers (see
// faultsim.RunOn).
func (g *Generator) reconcileDrops(sims []*faultsim.Simulator, results []FaultResult) {
	var idx []int
	for i := range results {
		switch {
		case results[i].Status == DetectedBySim && results[i].PatternIndex < 0:
			idx = append(idx, i)
		case results[i].Status == Redundant && g.opts.FaultSimInterval > 0:
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 || g.testSet.Len() == 0 {
		return
	}
	checked := make([]paths.Fault, len(idx))
	for i, j := range idx {
		checked[i] = results[j].Fault
	}
	sim, err := faultsim.RunOn(sims, g.testSet.Pairs, checked, g.opts.Mode == sensitize.Robust)
	if err != nil {
		g.fail(fmt.Errorf("core: reconciling simulation drops: %w", err))
		return
	}
	for i, j := range idx {
		r := &results[j]
		if r.Status == Redundant {
			if sim.DetectedBy[i] >= 0 {
				r.Status = DetectedBySim
				r.Phase = PhaseSimulation
				r.PatternIndex = sim.DetectedBy[i]
				g.stats.Redundant--
				g.stats.DetectedBySim++
			}
			continue
		}
		r.PatternIndex = sim.DetectedBy[i]
	}
}

// exchange is the cross-worker pattern buffer: every worker publishes its
// verified patterns and periodically fetches the patterns the other workers
// published since its last fetch, so DetectedBySim drops happen across
// workers whichever worker claims which unit.
type exchange struct {
	mu      sync.Mutex
	entries []exchangeEntry
	cursors []int
}

type exchangeEntry struct {
	from int
	pair pattern.Pair
}

func newExchange(workers int) *exchange {
	return &exchange{cursors: make([]int, workers)}
}

func (x *exchange) publish(from int, p pattern.Pair) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.entries = append(x.entries, exchangeEntry{from: from, pair: p})
}

// fetch returns the patterns published by other workers since worker w's
// previous fetch.
func (x *exchange) fetch(w int) []pattern.Pair {
	x.mu.Lock()
	defer x.mu.Unlock()
	var out []pattern.Pair
	for _, e := range x.entries[x.cursors[w]:] {
		if e.from != w {
			out = append(out, e.pair)
		}
	}
	x.cursors[w] = len(x.entries)
	return out
}
