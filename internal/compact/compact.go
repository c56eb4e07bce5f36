// Package compact implements static test-set compaction for path delay
// fault test sets: the merged pattern sets of multi-worker generation runs
// are measurably larger than one-worker ones (cross-shard interleaved-sim
// dropping is weaker than one worker's dropping), and compaction claws the
// difference back after the fact.
//
// Two classic passes are combined, both word-level bit parallel:
//
//   - Compatible-pair merging: two pairs whose three-valued vectors never
//     demand opposite values at the same position are merged into one pair
//     carrying the union of their requirements.  This needs the don't-care
//     information the generator normally discards when it fills a pattern,
//     so merging works on the X-preserving (unfilled) forms and the merged
//     pairs are re-filled afterwards by a Filler.  The forms are
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
	"encoding/binary"
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

// entry is one pair of a compaction round, with everything the rounds
// carry forward: its detections and, at level Full, its packed planes, so a
// pair that survives a round is never simulated or packed again.
type entry struct {
	filled   pattern.Pair
	unfilled pattern.Pair
	target   string
	// det is the set of faults the filled pair detects.
	det bitset
	// planes is unfilled packed by packPlanes (level Full only).
	planes []uint64
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
// completed.
func Compact(c *circuit.Circuit, set *pattern.Set, faults []paths.Fault, robust bool, level Level, fill Filler) (*pattern.Set, Stats, error) {
	out, st, _, err := CompactOn([]*faultsim.Simulator{faultsim.New(c)}, set, faults, robust, level, fill)
	return out, st, err
}

// CompactOn is Compact on the given simulators, which must be bound to the
// set's circuit; their pair batches are spread over them by
// faultsim.EachBatch.  It also returns, per fault, the index in the
// returned set of the first pair that detects the fault, or -1 — what
// faultsim.Run of the returned set reports as DetectedBy — or nil when level
// is None.
//
// The input set is simulated once.  A round then simulates only the pairs
// it freshly merges: every other pair carries its detections, and at level
// Full its packed planes, from the round that made it, so the result is
// exactly that of re-simulating every round's set.
func CompactOn(sims []*faultsim.Simulator, set *pattern.Set, faults []paths.Fault, robust bool, level Level, fill Filler) (*pattern.Set, Stats, []int, error) {
	st := Stats{PairsBefore: set.Len(), PairsAfter: set.Len()}
	if level == None {
		return set, st, nil, nil
	}
	if set.Len() == 0 || len(faults) == 0 {
		return set, st, firstDetecting(nil, len(faults)), nil
	}
	pool := make([]entry, set.Len())
	for i := range pool {
		target := ""
		if i < len(set.Targets) {
			target = set.Targets[i]
		}
		pool[i] = entry{filled: set.Pairs[i], unfilled: set.UnfilledAt(i), target: target}
	}
	if err := detect(sims, pool, faults, robust); err != nil {
		return nil, Stats{}, nil, err
	}
	if level == Full {
		pack(pool)
	}
	// baseline is the detected-fault set every round must reproduce exactly.
	baseline := newBitset(len(faults))
	for i := range pool {
		baseline.or(pool[i].det)
	}

	cur := pool
	merges := make(map[string]entry)
	for round := 0; round < maxCompactionRounds; round++ {
		next, roundStats, err := compactOnce(sims, cur, faults, robust, level, fill, baseline, merges)
		if err != nil {
			return nil, Stats{}, nil, err
		}
		if len(next) >= len(cur) {
			// No progress: discard the pass (this is what makes Compact
			// idempotent — on an already-compact set the first round changes
			// nothing and the input is returned as is).
			break
		}
		st.Merged += roundStats.Merged
		st.SimDropped += roundStats.SimDropped
		cur = next
	}
	st.PairsAfter = len(cur)
	first := firstDetecting(cur, len(faults))
	if len(cur) == set.Len() {
		return set, st, first, nil
	}
	out := &pattern.Set{InputNames: set.InputNames}
	trackOut := set.Unfilled != nil || level == Full
	for _, e := range cur {
		if trackOut {
			out.AddUnfilled(e.filled, e.unfilled, e.target)
		} else {
			out.Add(e.filled, e.target)
		}
	}
	return out, st, first, nil
}

// compactOnce runs one merge + reverse-order pass over the pool and returns
// the pairs it keeps, in order.  merges holds the merged pairs of earlier
// rounds (see mergedPool).
func compactOnce(sims []*faultsim.Simulator, pool []entry, faults []paths.Fault, robust bool, level Level, fill Filler, baseline bitset, merges map[string]entry) ([]entry, Stats, error) {
	var st Stats
	if level == Full {
		var err error
		pool, err = mergedPool(sims, pool, faults, robust, fill, baseline, merges, &st)
		if err != nil {
			return nil, Stats{}, err
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
	out := make([]entry, 0, kept)
	for i := range pool {
		if keep[i] {
			out = append(out, pool[i])
		}
	}
	return out, st, nil
}

// mergedPool builds the candidate pool of level Full: compatible pairs are
// merged greedily on their packed unfilled forms, merged pairs are unpacked,
// re-filled and simulated, and any merged pair that would detect a fault
// outside the baseline (changing coverage) is rejected in favour of its
// members.  Singleton buckets keep their entry, detections and planes as
// they are.  A merged pair is a function of its planes, so merges, keyed by
// planes, keeps every merged pair simulated so far: a merge a later round
// forms again (a rejected one, whose members stay compatible) is taken from
// there instead of being simulated again.
func mergedPool(sims []*faultsim.Simulator, pool []entry, faults []paths.Fault, robust bool, fill Filler, baseline bitset, merges map[string]entry, st *Stats) ([]entry, error) {
	planes := make([][]uint64, len(pool))
	for i := range pool {
		planes[i] = pool[i].planes
	}
	buckets := greedyMerge(planes)

	// Fill and simulate the new merges in one batch-sharded pass.
	keys := make([]string, len(buckets))
	var fresh []entry
	var freshKeys []string
	for bi, b := range buckets {
		if len(b.members) == 1 {
			continue
		}
		keys[bi] = planesKey(b.planes)
		if _, ok := merges[keys[bi]]; !ok {
			u := unpackPlanes(b.planes, pool[0].unfilled.Len())
			fresh = append(fresh, entry{filled: fill.Fill(u), unfilled: u, planes: b.planes})
			freshKeys = append(freshKeys, keys[bi])
		}
	}
	if err := detect(sims, fresh, faults, robust); err != nil {
		return nil, err
	}
	for i, m := range fresh {
		merges[freshKeys[i]] = m
	}

	out := make([]entry, 0, len(buckets))
	for bi, b := range buckets {
		if len(b.members) == 1 {
			out = append(out, pool[b.members[0]])
			continue
		}
		m := merges[keys[bi]]
		// A merge is only kept when it is coverage-neutral: it must not
		// detect a fault the input set missed (coverage may not grow — the
		// contract is bit-identical), and it must detect everything its
		// members detected, including their incidental fill-value detections
		// (coverage may not shrink).  Anything else falls back to the
		// members.
		reject := m.det.anyNotIn(baseline)
		for _, i := range b.members {
			if reject {
				break
			}
			reject = pool[i].det.anyNotIn(m.det)
		}
		if reject {
			for _, i := range b.members {
				out = append(out, pool[i])
			}
			continue
		}
		st.Merged += len(b.members) - 1
		targets := make([]string, 0, len(b.members))
		for _, i := range b.members {
			if pool[i].target != "" {
				targets = append(targets, pool[i].target)
			}
		}
		m.target = strings.Join(targets, " + ")
		out = append(out, m)
	}
	return out, nil
}

// detect fault-simulates the entries' filled pairs with sims and records,
// per entry, the bitset of faults it detects.
func detect(sims []*faultsim.Simulator, pool []entry, faults []paths.Fault, robust bool) error {
	words := (len(faults) + 63) / 64
	dets := make([]uint64, len(pool)*words)
	pairs := make([]pattern.Pair, len(pool))
	for i := range pool {
		pool[i].det = bitset(dets[i*words : (i+1)*words : (i+1)*words])
		pairs[i] = pool[i].filled
	}
	return faultsim.EachBatch(sims, pairs, func(_, base int, s *faultsim.Simulator) {
		for fi := range faults {
			mask := s.Detects(faults[fi], robust)
			for mask != 0 {
				pool[base+bits.TrailingZeros64(mask)].det.set(fi)
				mask &= mask - 1
			}
		}
	})
}

// planesKey returns the bytes of packed planes as a map key.
func planesKey(planes []uint64) string {
	b := make([]byte, 0, 8*len(planes))
	for _, w := range planes {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// firstDetecting returns, per fault, the index of the first entry of the
// pool that detects it, or -1.
func firstDetecting(pool []entry, faults int) []int {
	first := make([]int, faults)
	for i := range first {
		first[i] = -1
	}
	for i := len(pool) - 1; i >= 0; i-- {
		for w, word := range pool[i].det {
			for word != 0 {
				first[w*64+bits.TrailingZeros64(word)] = i
				word &= word - 1
			}
		}
	}
	return first
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
