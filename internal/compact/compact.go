// Package compact implements static test-set compaction for path delay
// fault test sets: the merged pattern sets of multi-worker generation runs
// are measurably larger than sequential ones (cross-shard interleaved-sim
// dropping is weaker than in-process dropping), and compaction claws the
// difference back after the fact.
//
// Two classic passes are combined, both word-level bit parallel:
//
//   - Compatible-pair merging: two pairs whose three-valued vectors never
//     demand opposite values at the same position are merged into one pair
//     carrying the union of their requirements.  This needs the don't-care
//     information the generator normally discards when it fills a pattern,
//     so merging works on the X-preserving (unfilled) forms and the merged
//     pairs are re-filled afterwards by a pluggable Filler.  The forms are
//     compared as bit planes of 64 inputs per word in the paper's Table 1
//     encoding, where a merge is an OR and a conflict the (1,1) code.
//
//   - Reverse-order fault simulation: the pairs are re-simulated against
//     the fault list, 64 pairs per simulation, in reverse generation order
//     and a pair is kept only if it detects a fault no later-kept pair
//     detects.  Later patterns were generated for the harder faults, so
//     scanning backwards retires the early patterns whose faults are
//     covered incidentally.
//
// Compaction is coverage-exact by construction: the compacted set detects
// exactly the same faults of the given fault list as the input set.  A
// merge is kept only when it is coverage-neutral — a merged pair that
// detects a fault the input set missed, or that loses one of its members'
// incidental detections, is rejected and its members kept separate — and
// the reverse-order pass only drops pairs whose detections are already
// covered by the kept ones.
package compact

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/pattern"
)

// Level selects how aggressively a test set is compacted.
type Level int

const (
	// None disables compaction.
	None Level = iota
	// Reverse drops pairs by reverse-order fault simulation only.
	Reverse
	// Full merges compatible pairs first, then applies the reverse-order
	// pass to the merged set.
	Full
)

// String returns the flag spelling of the level.
func (l Level) String() string {
	switch l {
	case None:
		return "none"
	case Reverse:
		return "reverse"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// ParseLevel parses "none", "reverse" or "full".
func ParseLevel(s string) (Level, error) {
	switch s {
	case "none", "":
		return None, nil
	case "reverse":
		return Reverse, nil
	case "full":
		return Full, nil
	}
	return None, fmt.Errorf("compact: unknown compaction level %q (want none, reverse or full)", s)
}

// Stats summarizes one compaction run.
type Stats struct {
	// PairsBefore and PairsAfter are the set sizes around the compaction.
	PairsBefore int
	PairsAfter  int
	// Merged counts the pairs absorbed into another pair by compatible-pair
	// merging (k pairs merging into one count as k-1).
	Merged int
	// SimDropped counts the pairs dropped by the reverse-order fault
	// simulation pass.
	SimDropped int
}

// Add accumulates another run's counters (the sharded engine merges worker
// statistics the same way).
func (s *Stats) Add(o Stats) {
	s.PairsBefore += o.PairsBefore
	s.PairsAfter += o.PairsAfter
	s.Merged += o.Merged
	s.SimDropped += o.SimDropped
}

// Reduction returns the fractional size reduction (0..1).
func (s Stats) Reduction() float64 {
	if s.PairsBefore == 0 {
		return 0
	}
	return 1 - float64(s.PairsAfter)/float64(s.PairsBefore)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("pairs %d -> %d (%.1f%% smaller): merged=%d sim-dropped=%d",
		s.PairsBefore, s.PairsAfter, s.Reduction()*100, s.Merged, s.SimDropped)
}

// entry is one candidate pattern of the selection pool.
type entry struct {
	filled   pattern.Pair
	unfilled pattern.Pair
	target   string
	det      bitset
}

// maxCompactionRounds bounds the shrink-until-fixpoint iteration of
// Compact; in practice two or three rounds reach the fixpoint.
const maxCompactionRounds = 8

// Compact statically compacts the test set against the fault list: merging
// of compatible pairs (level Full), then reverse-order fault simulation
// (levels Reverse and Full), iterated until the set stops shrinking.  It
// returns a new set — the input is never modified — plus the compaction
// statistics.  The compacted set detects exactly the same faults of the
// list, in the same (robust or nonrobust) class, as the input set; Compact
// is idempotent (a pass that fails to shrink the set is discarded, so
// compacting a compacted set returns it unchanged, with zero work
// counters).
//
// Merging operates on the X-preserving forms recorded in set.Unfilled (see
// pattern.Set.AddUnfilled and the generator's EmitUnfilled option); without
// them every value counts as specified and merging degrades to duplicate
// elimination.  fill specifies how the don't cares of merged pairs are
// completed; nil selects ZeroFill.
func Compact(c *circuit.Circuit, set *pattern.Set, faults []paths.Fault, robust bool, level Level, fill Filler) (*pattern.Set, Stats, error) {
	st := Stats{PairsBefore: set.Len(), PairsAfter: set.Len()}
	if level == None || set.Len() == 0 || len(faults) == 0 {
		return set, st, nil
	}
	if fill == nil {
		fill = ZeroFill()
	}
	sim := faultsim.New(c)
	cur := set
	for round := 0; round < maxCompactionRounds; round++ {
		out, roundStats, err := compactOnce(sim, cur, faults, robust, level, fill)
		if err != nil {
			return nil, Stats{}, err
		}
		if out.Len() >= cur.Len() {
			// No progress: discard the pass (this is what makes Compact
			// idempotent — on an already-compact set the first round changes
			// nothing and the input is returned as is).
			break
		}
		st.Merged += roundStats.Merged
		st.SimDropped += roundStats.SimDropped
		cur = out
	}
	st.PairsAfter = cur.Len()
	return cur, st, nil
}

// compactOnce runs one merge + reverse-order pass over the set, simulating
// with sim.
func compactOnce(sim *faultsim.Simulator, set *pattern.Set, faults []paths.Fault, robust bool, level Level, fill Filler) (*pattern.Set, Stats, error) {
	var st Stats

	// Detection bitsets of the input pairs: baseline is the detected-fault
	// set the compacted output must reproduce exactly.
	origDet, err := detections(sim, set.Pairs, faults, robust)
	if err != nil {
		return nil, Stats{}, err
	}
	baseline := newBitset(len(faults))
	for p := range origDet {
		baseline.or(origDet[p])
	}

	var pool []entry
	if level == Full {
		pool, err = mergedPool(sim, set, faults, robust, fill, origDet, baseline, &st)
		if err != nil {
			return nil, Stats{}, err
		}
	} else {
		pool = make([]entry, set.Len())
		for i := range pool {
			pool[i] = poolEntry(set, i, origDet[i])
		}
	}

	// Reverse-order fault simulation pass: walk the pool backwards and keep
	// a pattern only when it detects a fault none of the already-kept
	// (later) patterns detects.
	covered := newBitset(len(faults))
	keep := make([]bool, len(pool))
	kept := 0
	for i := len(pool) - 1; i >= 0; i-- {
		if pool[i].det.anyNotIn(covered) {
			keep[i] = true
			kept++
			covered.or(pool[i].det)
		}
	}
	st.SimDropped = len(pool) - kept

	out := &pattern.Set{InputNames: set.InputNames}
	trackOut := set.Unfilled != nil || level == Full
	for i, e := range pool {
		if !keep[i] {
			continue
		}
		if trackOut {
			out.AddUnfilled(e.filled, e.unfilled, e.target)
		} else {
			out.Add(e.filled, e.target)
		}
	}
	st.PairsAfter = out.Len()
	return out, st, nil
}

// poolEntry builds the pool entry of input pair i.
func poolEntry(set *pattern.Set, i int, det bitset) entry {
	target := ""
	if i < len(set.Targets) {
		target = set.Targets[i]
	}
	return entry{filled: set.Pairs[i], unfilled: set.UnfilledAt(i), target: target, det: det}
}

// mergedPool builds the candidate pool of level Full: compatible pairs are
// merged greedily on their unfilled forms, merged pairs are re-filled and
// re-simulated, and any merged pair that would detect a fault outside the
// baseline (changing coverage) is rejected in favour of its members.
// Singleton buckets keep their original filled pair (and its detections)
// bit for bit.
func mergedPool(sim *faultsim.Simulator, set *pattern.Set, faults []paths.Fault, robust bool, fill Filler, origDet []bitset, baseline bitset, st *Stats) ([]entry, error) {
	buckets := greedyMerge(set)

	// Re-fill and re-simulate the true merges in one parallel-pattern run.
	var mergedPairs []pattern.Pair
	var mergedIdx []int
	for bi, b := range buckets {
		if len(b.members) > 1 {
			mergedPairs = append(mergedPairs, fill.Fill(b.merged))
			mergedIdx = append(mergedIdx, bi)
		}
	}
	mergedDet, err := detections(sim, mergedPairs, faults, robust)
	if err != nil {
		return nil, err
	}

	pool := make([]entry, 0, len(buckets))
	mi := 0
	for _, b := range buckets {
		if len(b.members) == 1 {
			i := b.members[0]
			pool = append(pool, poolEntry(set, i, origDet[i]))
			continue
		}
		filled, det := mergedPairs[mi], mergedDet[mi]
		mi++
		// A merge is only kept when it is coverage-neutral: it must not
		// detect a fault the input set missed (coverage may not grow — the
		// contract is bit-identical), and it must detect everything its
		// members detected, including their incidental fill-value detections
		// (coverage may not shrink).  Anything else falls back to the
		// members.
		reject := det.anyNotIn(baseline)
		for _, i := range b.members {
			if reject {
				break
			}
			reject = origDet[i].anyNotIn(det)
		}
		if reject {
			for _, i := range b.members {
				pool = append(pool, poolEntry(set, i, origDet[i]))
			}
			continue
		}
		st.Merged += len(b.members) - 1
		targets := make([]string, 0, len(b.members))
		for _, i := range b.members {
			if i < len(set.Targets) && set.Targets[i] != "" {
				targets = append(targets, set.Targets[i])
			}
		}
		pool = append(pool, entry{
			filled:   filled,
			unfilled: b.merged,
			target:   strings.Join(targets, " + "),
			det:      det,
		})
	}
	return pool, nil
}

// detections fault-simulates the pairs with sim (in batches of
// faultsim.BatchSize) and returns, per pair, the bitset of faults it detects.
func detections(sim *faultsim.Simulator, pairs []pattern.Pair, faults []paths.Fault, robust bool) ([]bitset, error) {
	det := make([]bitset, len(pairs))
	for i := range det {
		det[i] = newBitset(len(faults))
	}
	if len(pairs) == 0 || len(faults) == 0 {
		return det, nil
	}
	for base := 0; base < len(pairs); base += faultsim.BatchSize {
		end := base + faultsim.BatchSize
		if end > len(pairs) {
			end = len(pairs)
		}
		if _, err := sim.Load(pairs[base:end]); err != nil {
			return nil, err
		}
		for fi := range faults {
			mask := sim.Detects(faults[fi], robust)
			for mask != 0 {
				b := bits.TrailingZeros64(mask)
				mask &^= 1 << uint(b)
				det[base+b].set(fi)
			}
		}
	}
	return det, nil
}

// bitset is a fixed-size bit vector over fault indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << uint(i%64) }

// or folds o into b (b |= o).
func (b bitset) or(o bitset) {
	for i := range o {
		b[i] |= o[i]
	}
}

// anyNotIn reports whether b has a bit set that o does not (b &^ o != 0).
func (b bitset) anyNotIn(o bitset) bool {
	for i := range b {
		if b[i]&^o[i] != 0 {
			return true
		}
	}
	return false
}
