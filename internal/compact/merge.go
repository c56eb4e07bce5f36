package compact

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/pattern"
)

// bucket is one merged pattern under construction: the positionwise merge of
// the unfilled forms of its member pairs, as packed planes.
type bucket struct {
	// members are the indices of the merged source pairs, ascending.
	members []int
	// planes is the combined X-preserving pair packed by packPlanes: at
	// every position the union of the members' requirements (all of which
	// are pairwise compatible).  A singleton bucket shares its member's
	// planes; the first merge gives the bucket planes of its own.
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
		hi := min(lo+64, len(p.V2))
		var z1, o1, z2, o2 uint64
		i := lo
		for ; i+8 <= hi; i += 8 {
			// Eight positions at a time: a byte per Value3 code, gathered
			// into eight plane bits per code bit.
			v1, v2, b := load8(p.V1[i:]), load8(p.V2[i:]), uint(i-lo)
			z1 |= gather8(v1) << b
			o1 |= gather8(v1>>1) << b
			z2 |= gather8(v2) << b
			o2 |= gather8(v2>>1) << b
		}
		for ; i < hi; i++ {
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

// load8 returns the first eight codes of v as the bytes of a word, v[0]
// lowest.
func load8(v []logic.Value3) uint64 {
	_ = v[7]
	return uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
		uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56
}

// gather8 returns bit 0 of each byte of x as bits 0..7, byte 0's lowest.
// Masked to one bit per byte, the product's top byte collects byte i's bit
// at bit 56+i, and no two partial products overlap, so nothing carries.
func gather8(x uint64) uint64 {
	return (x & 0x0101010101010101) * 0x0102040810204080 >> 56
}

// planeWords returns the number of plane words packPlanes writes for a
// pair over n inputs.
func planeWords(n int) int { return 4 * ((n + 63) / 64) }

// unpackPlanes is the inverse of packPlanes: it returns the pair over n
// inputs whose planes are planes.
func unpackPlanes(planes []uint64, n int) pattern.Pair {
	p := pattern.NewPair(n)
	for lo := 0; lo < n; lo += 64 {
		w := 4 * (lo / 64)
		z1, o1, z2, o2 := planes[w], planes[w+1], planes[w+2], planes[w+3]
		for i := lo; i < min(lo+64, n); i++ {
			b := uint(i - lo)
			p.V1[i] = logic.Value3(z1>>b&1 | (o1>>b&1)<<1)
			p.V2[i] = logic.Value3(z2>>b&1 | (o2>>b&1)<<1)
		}
	}
	return p
}

// pack packs every entry's unfilled form into planes, all entries sharing
// one backing array.
func pack(pool []entry) {
	if len(pool) == 0 {
		return
	}
	n := planeWords(pool[0].unfilled.Len())
	planes := make([]uint64, len(pool)*n)
	for i := range pool {
		pool[i].planes = planes[i*n : (i+1)*n : (i+1)*n]
		packPlanes(pool[i].planes, pool[i].unfilled)
	}
}

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

// mergeInto folds the packed pair planes, which must be compatible with
// the bucket, into the bucket as member idx.
func (b *bucket) mergeInto(planes []uint64, idx int) {
	if len(b.members) == 1 {
		b.planes = append([]uint64(nil), b.planes...)
	}
	for w := range b.planes {
		b.planes[w] |= planes[w]
	}
	b.members = append(b.members, idx)
}

// greedyMerge partitions packed unfilled pairs into buckets of mutually
// compatible ones: pairs are scanned in order and each joins the compatible
// bucket it has the highest affinity with (ties to the earliest bucket), or
// founds a new one.  The result is maximal: any two final buckets are
// pairwise incompatible (a bucket only accumulates requirements, so a pair
// rejected by a bucket's partial state is also rejected by its final state),
// which is what lets compaction converge — a second pass finds nothing left
// to merge.  The input planes are not modified.
func greedyMerge(planes [][]uint64) []*bucket {
	var buckets []*bucket
	for i, p := range planes {
		var best *bucket
		bestScore := -1
		for _, b := range buckets {
			if !compatible(b.planes, p) {
				continue
			}
			if score := affinity(b.planes, p); score > bestScore {
				best, bestScore = b, score
			}
		}
		if best != nil {
			best.mergeInto(p, i)
		} else {
			buckets = append(buckets, &bucket{members: []int{i}, planes: p})
		}
	}
	return buckets
}
