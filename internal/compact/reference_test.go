package compact

import (
	"strings"

	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/pattern"
)

// ReferenceCompact exposes referenceCompact to the external tests.
var ReferenceCompact = referenceCompact

// referenceCompact is the reference CompactOn is held to: every round
// re-simulates its whole set on a fresh simulator, merges on the scalar
// greedy pass, and the first detecting pairs come from one more
// faultsim.Run of the result.
func referenceCompact(c *circuit.Circuit, set *pattern.Set, faults []paths.Fault, robust bool, level Level, fill Filler) (*pattern.Set, Stats, []int, error) {
	st := Stats{PairsBefore: set.Len(), PairsAfter: set.Len()}
	if level == None {
		return set, st, nil, nil
	}
	cur := set
	for round := 0; round < maxCompactionRounds && cur.Len() > 0 && len(faults) > 0; round++ {
		out, rs, err := referenceRound(c, cur, faults, robust, level, fill)
		if err != nil {
			return nil, Stats{}, nil, err
		}
		if out.Len() >= cur.Len() {
			break
		}
		st.Merged += rs.Merged
		st.SimDropped += rs.SimDropped
		cur = out
	}
	st.PairsAfter = cur.Len()
	res, err := faultsim.Run(c, cur.Pairs, faults, robust)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	return cur, st, res.DetectedBy, nil
}

// referenceRound is one merge + reverse-order round of referenceCompact.
func referenceRound(c *circuit.Circuit, set *pattern.Set, faults []paths.Fault, robust bool, level Level, fill Filler) (*pattern.Set, Stats, error) {
	var st Stats
	det, err := referenceDetections(c, set.Pairs, faults, robust)
	if err != nil {
		return nil, Stats{}, err
	}
	baseline := newBitset(len(faults))
	for _, d := range det {
		baseline.or(d)
	}
	target := func(i int) string {
		if i < len(set.Targets) {
			return set.Targets[i]
		}
		return ""
	}
	member := func(i int) entry {
		return entry{filled: set.Pairs[i], unfilled: set.UnfilledAt(i), target: target(i), det: det[i]}
	}
	var pool []entry
	if level == Full {
		buckets := greedyMergeScalar(set)
		var mergedPairs []pattern.Pair
		for _, b := range buckets {
			if len(b.members) > 1 {
				mergedPairs = append(mergedPairs, fill.Fill(b.merged))
			}
		}
		mergedDet, err := referenceDetections(c, mergedPairs, faults, robust)
		if err != nil {
			return nil, Stats{}, err
		}
		mi := 0
		for _, b := range buckets {
			if len(b.members) == 1 {
				pool = append(pool, member(b.members[0]))
				continue
			}
			filled, md := mergedPairs[mi], mergedDet[mi]
			mi++
			reject := md.anyNotIn(baseline)
			for _, i := range b.members {
				reject = reject || det[i].anyNotIn(md)
			}
			if reject {
				for _, i := range b.members {
					pool = append(pool, member(i))
				}
				continue
			}
			st.Merged += len(b.members) - 1
			var targets []string
			for _, i := range b.members {
				if target(i) != "" {
					targets = append(targets, target(i))
				}
			}
			pool = append(pool, entry{filled: filled, unfilled: b.merged, target: strings.Join(targets, " + "), det: md})
		}
	} else {
		for i := range set.Pairs {
			pool = append(pool, member(i))
		}
	}
	covered := newBitset(len(faults))
	keep := make([]bool, len(pool))
	for i := len(pool) - 1; i >= 0; i-- {
		if pool[i].det.anyNotIn(covered) {
			keep[i] = true
			covered.or(pool[i].det)
		}
	}
	out := &pattern.Set{InputNames: set.InputNames}
	for i, e := range pool {
		switch {
		case !keep[i]:
			st.SimDropped++
		case set.Unfilled != nil || level == Full:
			out.AddUnfilled(e.filled, e.unfilled, e.target)
		default:
			out.Add(e.filled, e.target)
		}
	}
	return out, st, nil
}

// referenceDetections simulates the pairs on a fresh simulator, batch by
// batch, and returns each pair's detected-fault bitset.
func referenceDetections(c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault, robust bool) ([]bitset, error) {
	sim := faultsim.New(c)
	det := make([]bitset, len(pairs))
	for i := range det {
		det[i] = newBitset(len(faults))
	}
	for base := 0; base < len(pairs); base += faultsim.BatchSize {
		if _, err := sim.Load(pairs[base:min(base+faultsim.BatchSize, len(pairs))]); err != nil {
			return nil, err
		}
		for fi, f := range faults {
			mask := sim.Detects(f, robust)
			for b := 0; mask != 0; b, mask = b+1, mask>>1 {
				if mask&1 != 0 {
					det[base+b].set(fi)
				}
			}
		}
	}
	return det, nil
}
