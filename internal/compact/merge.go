package compact

import (
	"math/bits"

	"repro/internal/pattern"
)

// bucket is one merged pattern under construction: the positionwise merge of
// the unfilled forms of its member pairs.
type bucket struct {
	// members are the indices of the merged source pairs, ascending.
	members []int
	// merged is the combined X-preserving pair: at every position the union
	// of the members' requirements (all of which are pairwise compatible).
	merged pattern.Pair
	// planes is merged packed by packPlanes.
	planes []uint64
}

// packPlanes packs a pair into bit planes in the paper's Table 1 encoding,
// 64 inputs per word: for every word of inputs it writes the 0-plane and
// the 1-plane of V1, then those of V2.  dst must hold planeWords(p.Len())
// words.  On these planes the merge of two requirements is a word-wide OR
// and a conflict is a position with both planes set, so compatible and
// affinity compare 64 inputs per operation.
func packPlanes(dst []uint64, p pattern.Pair) {
	for lo := 0; lo < len(p.V2); lo += 64 {
		var z1, o1, z2, o2 uint64
		for i := lo; i < min(lo+64, len(p.V2)); i++ {
			// A Value3 is its Table 1 code: bit 0 is the 0-bit, bit 1 the
			// 1-bit.
			v1, v2, b := uint64(p.V1[i]), uint64(p.V2[i]), uint(i-lo)
			z1 |= (v1 & 1) << b
			o1 |= (v1 >> 1 & 1) << b
			z2 |= (v2 & 1) << b
			o2 |= (v2 >> 1 & 1) << b
		}
		w := 4 * (lo / 64)
		dst[w], dst[w+1], dst[w+2], dst[w+3] = z1, o1, z2, o2
	}
}

// planeWords returns the number of plane words packPlanes writes for a
// pair over n inputs.
func planeWords(n int) int { return 4 * ((n + 63) / 64) }

// compatible reports whether two packed test pairs can be merged: both the
// initialization vectors and the propagation vectors must be conflict-free
// positionwise, a specified value being compatible with X and with the same
// value and incompatible with the opposite value.  V1 and V2 are checked
// independently — an input may be constrained by one pair's first vector
// and the other pair's second.
func compatible(a, b []uint64) bool {
	for w := 0; w < len(a); w += 2 {
		if (a[w]|b[w])&(a[w+1]|b[w+1]) != 0 {
			return false
		}
	}
	return true
}

// affinity scores how well packed pair p fits packed bucket b: the number
// of positions where p demands an assigned value and b already holds exactly
// that value.  Packing a pair into the bucket it overlaps most leaves the
// other buckets less constrained, which measurably beats plain first-fit on
// the ISCAS-class sets.
func affinity(b, p []uint64) int {
	n := 0
	for w := 0; w < len(p); w += 2 {
		pz, po := p[w], p[w+1]
		n += bits.OnesCount64((pz ^ po) &^ ((pz ^ b[w]) | (po ^ b[w+1])))
	}
	return n
}

// mergeInto folds pair p, packed as planes, into the bucket (which must be
// compatible with p).
func (b *bucket) mergeInto(p pattern.Pair, planes []uint64, idx int) {
	for i := range b.merged.V1 {
		b.merged.V1[i] = b.merged.V1[i].Merge(p.V1[i])
		b.merged.V2[i] = b.merged.V2[i].Merge(p.V2[i])
	}
	for w := range b.planes {
		b.planes[w] |= planes[w]
	}
	b.members = append(b.members, idx)
}

// greedyMerge partitions the set's pairs into buckets of mutually
// compatible unfilled forms: pairs are scanned in generation order and each
// joins the compatible bucket it has the highest affinity with (ties to the
// earliest bucket), or founds a new one.  The result is maximal: any two
// final buckets are pairwise incompatible (a bucket only accumulates
// requirements, so a pair rejected by a bucket's partial state is also
// rejected by its final state), which is what lets compaction converge — a
// second pass finds nothing left to merge.
func greedyMerge(set *pattern.Set) []*bucket {
	var buckets []*bucket
	var planes []uint64
	for i := range set.Pairs {
		u := set.UnfilledAt(i)
		if n := planeWords(u.Len()); len(planes) != n {
			planes = make([]uint64, n)
		}
		packPlanes(planes, u)
		var best *bucket
		bestScore := -1
		for _, b := range buckets {
			if !compatible(b.planes, planes) {
				continue
			}
			if score := affinity(b.planes, planes); score > bestScore {
				best, bestScore = b, score
			}
		}
		if best != nil {
			best.mergeInto(u, planes, i)
		} else {
			buckets = append(buckets, &bucket{
				members: []int{i},
				merged:  u.Clone(),
				planes:  append([]uint64(nil), planes...),
			})
		}
	}
	return buckets
}
