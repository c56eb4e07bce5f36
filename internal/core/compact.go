package core

import (
	"fmt"

	"repro/internal/compact"
	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// compactRun statically compacts the patterns this run appended to the test
// set (indices base and up) against the run's fault list, when the options
// ask for it: compatible-pair merging and/or reverse-order fault
// simulation, followed by a PatternIndex remap of the run's results onto
// the compacted set.  Earlier runs' patterns are never touched — their
// faults are not in scope, so dropping or merging them could lose coverage.
// It simulates on sims, the simulators of the run's workers (see
// compact.CompactOn).
//
// Compaction is coverage-exact (see internal/compact): the compacted set
// detects exactly the faults of this run the uncompacted set detected, so
// every result with a Detected() status keeps a valid detecting pattern.
// The Test field of a Tested result still holds the pattern as generated,
// which after merging is subsumed by (but no longer literally present in)
// the set; PatternIndex always points at a pattern of the compacted set
// that detects the fault.
func (g *Generator) compactRun(sims []*faultsim.Simulator, faults []paths.Fault, results []FaultResult, base int) {
	if g.opts.Compaction == compact.None || g.testSet.Len()-base < 2 {
		return
	}
	sub := g.testSet.Slice(base)
	compacted, st, first, err := compact.CompactOn(sims, sub, faults, g.opts.Mode == sensitize.Robust, g.opts.Compaction, g.opts.CompactionXFill)
	if err != nil {
		g.fail(fmt.Errorf("core: compacting the run's patterns: %w", err))
		return
	}
	g.stats.Compaction.Add(st)
	if st.PairsAfter >= st.PairsBefore {
		return
	}
	g.testSet.Truncate(base)
	g.testSet.Append(compacted)

	// Remap the run's pattern indices onto the compacted set, from the
	// first detecting pairs compaction reports.  Detection of every covered
	// fault is guaranteed (every recorded pattern was verified against its
	// fault), so a miss — a generator bug — must not leave an index
	// pointing into the replaced window: it fails safe to -1.  Indices below
	// base (an earlier run's pattern, untouched by this compaction) stay
	// valid and are kept.
	for i := range results {
		if !results[i].Status.Detected() {
			continue
		}
		switch {
		case first[i] >= 0:
			results[i].PatternIndex = base + first[i]
		case results[i].PatternIndex >= base:
			results[i].PatternIndex = -1
		}
	}
}
