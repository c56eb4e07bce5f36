package compact

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/pattern"
)

// GreedyMerge exposes the merge pass to the external benchmarks.
var GreedyMerge = greedyMerge

// PackSet packs the unfilled forms of the set's pairs into the planes
// greedyMerge takes, as compaction packs its input once.
func PackSet(set *pattern.Set) [][]uint64 {
	pool := make([]entry, set.Len())
	planes := make([][]uint64, set.Len())
	for i := range pool {
		pool[i].unfilled = set.UnfilledAt(i)
	}
	pack(pool)
	for i := range pool {
		planes[i] = pool[i].planes
	}
	return planes
}

// compatibleScalar is the position-by-position reference of compatible.
func compatibleScalar(a, b pattern.Pair) bool {
	for i := range a.V1 {
		if a.V1[i].Merge(b.V1[i]).IsConflict() || a.V2[i].Merge(b.V2[i]).IsConflict() {
			return false
		}
	}
	return true
}

// affinityScalar is the position-by-position reference of affinity.
func affinityScalar(merged, p pattern.Pair) int {
	n := 0
	for i := range p.V1 {
		if p.V1[i].IsAssigned() && merged.V1[i] == p.V1[i] {
			n++
		}
		if p.V2[i].IsAssigned() && merged.V2[i] == p.V2[i] {
			n++
		}
	}
	return n
}

// scalarBucket is a bucket of greedyMergeScalar: its members and their
// positionwise merge.
type scalarBucket struct {
	members []int
	merged  pattern.Pair
}

// greedyMergeScalar is greedyMerge deciding on the scalar references and
// merging the members' Value3 slices position by position.
func greedyMergeScalar(set *pattern.Set) []*scalarBucket {
	var buckets []*scalarBucket
	for i := range set.Pairs {
		u := set.UnfilledAt(i)
		var best *scalarBucket
		bestScore := -1
		for _, b := range buckets {
			if !compatibleScalar(b.merged, u) {
				continue
			}
			if score := affinityScalar(b.merged, u); score > bestScore {
				best, bestScore = b, score
			}
		}
		if best != nil {
			for k := range best.merged.V1 {
				best.merged.V1[k] = best.merged.V1[k].Merge(u.V1[k])
				best.merged.V2[k] = best.merged.V2[k].Merge(u.V2[k])
			}
			best.members = append(best.members, i)
		} else {
			buckets = append(buckets, &scalarBucket{members: []int{i}, merged: u.Clone()})
		}
	}
	return buckets
}

// randomUnfilled draws an X-preserving pair over n inputs in which each
// position is specified with probability density.
func randomUnfilled(n int, density float64, rng *rand.Rand) pattern.Pair {
	p := pattern.NewPair(n)
	draw := func() logic.Value3 {
		switch {
		case rng.Float64() >= density:
			return logic.X3
		case rng.Intn(2) == 0:
			return logic.Zero3
		}
		return logic.One3
	}
	for i := 0; i < n; i++ {
		p.V1[i], p.V2[i] = draw(), draw()
	}
	return p
}

var planeWidths = []int{1, 63, 64, 65, 1464}

// TestMergePlanesMatchScalar checks the packed compatible and affinity
// against the scalar references on random X-preserving pairs, sparse enough
// that both outcomes of compatible occur at every width, and that
// unpackPlanes inverts packPlanes.
func TestMergePlanesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	for _, n := range planeWidths {
		a, b := make([]uint64, planeWords(n)), make([]uint64, planeWords(n))
		var seen [2]int
		for trial := 0; trial < 2000; trial++ {
			// Densities from 0.5 down to about 1/n specified positions.
			density := 1 / (2 + rng.Float64()*float64(2*n))
			pa, pb := randomUnfilled(n, density, rng), randomUnfilled(n, density, rng)
			packPlanes(a, pa)
			packPlanes(b, pb)
			if got := unpackPlanes(a, n); got.String() != pa.String() {
				t.Fatalf("n=%d: unpackPlanes(packPlanes(p)) = %s, want %s", n, got, pa)
			}
			want := compatibleScalar(pa, pb)
			if got := compatible(a, b); got != want {
				t.Fatalf("n=%d: compatible = %v, scalar %v\n  a: %s\n  b: %s", n, got, want, pa, pb)
			}
			if got, want := affinity(a, b), affinityScalar(pa, pb); got != want {
				t.Fatalf("n=%d: affinity = %d, scalar %d\n  a: %s\n  b: %s", n, got, want, pa, pb)
			}
			if want {
				seen[1]++
			} else {
				seen[0]++
			}
		}
		if seen[0] == 0 || seen[1] == 0 {
			t.Errorf("n=%d: trials were compatible %d times and incompatible %d times; want both", n, seen[1], seen[0])
		}
	}
}

// TestGreedyMergeMatchesScalar checks that greedyMerge on packed planes
// builds exactly the buckets of the scalar decision, members and merged
// pairs alike (a bucket's pair unpacked from its planes), and leaves its
// input planes as they were.
func TestGreedyMergeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range planeWidths {
		set := &pattern.Set{}
		for i := 0; i < 300; i++ {
			density := 3 / (3 + rng.Float64()*float64(n))
			u := randomUnfilled(n, density, rng)
			set.AddUnfilled(u.FillX(logic.Zero3), u, "")
		}
		planes := PackSet(set)
		packed := PackSet(set)
		got, want := greedyMerge(planes), greedyMergeScalar(set)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d buckets, scalar %d", n, len(got), len(want))
		}
		merges := 0
		for k := range want {
			if len(got[k].members) != len(want[k].members) {
				t.Fatalf("n=%d bucket %d: members %v, scalar %v", n, k, got[k].members, want[k].members)
			}
			for m := range want[k].members {
				if got[k].members[m] != want[k].members[m] {
					t.Fatalf("n=%d bucket %d: members %v, scalar %v", n, k, got[k].members, want[k].members)
				}
			}
			if merged := unpackPlanes(got[k].planes, n); merged.String() != want[k].merged.String() {
				t.Fatalf("n=%d bucket %d: merged %s, scalar %s", n, k, merged, want[k].merged)
			}
			merges += len(want[k].members) - 1
		}
		for i := range planes {
			if !slices.Equal(planes[i], packed[i]) {
				t.Fatalf("n=%d: greedyMerge modified the planes of pair %d", n, i)
			}
		}
		if merges == 0 || len(want) == 1 {
			t.Errorf("n=%d: %d buckets with %d merges; want a set that both merges and keeps pairs apart", n, len(want), merges)
		}
	}
}
