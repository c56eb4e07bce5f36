package core

import (
	"context"
	"maps"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// deepCircuit is a synthesized circuit of depth 140: its redundant paths run
// past 65 nets, so recording their prefixes takes more than one round of the
// bit-parallel search.
func deepCircuit() *circuit.Circuit {
	return bench.MustSynthesize(bench.Profile{
		Name: "deep140", Inputs: 40, Outputs: 20, Gates: 2000, Depth: 140, Seed: 7,
		InputFaninBias: 0.3, WideFaninFraction: 0.15, InverterFraction: 0.15,
	})
}

// shortestConflictingPrefix is the one-length-at-a-time reference of
// recordRedundantPrefix: it implies every prefix length 2..len of the fault's
// path on its own, on a single bit level, and returns the first conflicting
// length (0 when none conflicts).  It also checks the monotonicity the
// search relies on: once a prefix conflicts, every longer one does.
func shortestConflictingPrefix(t *testing.T, g *Generator, st *implic.State, r *rec) int {
	t.Helper()
	one := logic.LevelsMask(1)
	first := 0
	for n := 2; n <= r.fault.Path.Len(); n++ {
		st.Reset(one)
		for _, a := range r.cond.Assignments {
			if int(a.Pos) < n {
				st.AddRequirement(a.Net, a.Value, one)
			}
		}
		st.AssignPI(r.fault.Path.Input(), g.launchValue(r.fault.Transition), one)
		conflict := st.Imply().Bit(0)
		switch {
		case conflict && first == 0:
			first = n
		case !conflict && first != 0:
			t.Errorf("%s: prefix %d conflicts but prefix %d does not", r.fault.Describe(g.c), first, n)
		}
	}
	return first
}

// TestRedundantPrefixMatchesReference checks every recorded redundant
// subpath against shortestConflictingPrefix: the set of recorded prefixes
// must be exactly the reference's shortest conflicting prefixes of the
// faults proved redundant by search.
func TestRedundantPrefixMatchesReference(t *testing.T) {
	get := func(name string) *circuit.Circuit {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	deep := deepCircuit()
	for _, tc := range []struct {
		c      *circuit.Circuit
		mode   sensitize.Mode
		faults int
		// long requires a redundant path of more than 65 nets, whose search
		// takes several rounds.
		long bool
	}{
		{get("c880"), sensitize.Robust, 400, false},
		{get("c7552"), sensitize.Robust, 256, false},
		{deep, sensitize.Robust, 250, true},
		{deep, sensitize.Nonrobust, 250, true},
	} {
		opts := DefaultOptions(tc.mode)
		// Without the interleaved simulation no Redundant result is relabeled,
		// so every fault proved redundant by search recorded its prefix.
		opts.FaultSimInterval = 0
		g := New(tc.c, opts)
		faults := paths.SampleFaults(tc.c, tc.faults, 1995)
		results := g.Run(context.Background(), faults)

		ref := implic.NewStateWidth(tc.c, 1)
		want := make(map[string]bool)
		searched, longest := 0, 0
		for i := range results {
			if results[i].Status != Redundant || results[i].Phase == PhasePruning {
				continue
			}
			r := &rec{fault: faults[i], res: &results[i]}
			if !g.sensitizeRec(r) {
				t.Fatalf("%s: cannot sensitize %s", tc.c.Name, r.fault.Describe(tc.c))
			}
			searched++
			longest = max(longest, r.fault.Path.Len())
			n := shortestConflictingPrefix(t, g, ref, r)
			if n == 0 {
				continue
			}
			key := prefixKeyBuilder(r.fault.Transition)
			for _, net := range r.fault.Path.Nets[:n] {
				key.add(net)
			}
			want[key.String()] = true
		}
		if len(want) == 0 {
			t.Fatalf("%s %v: no redundant prefix to check (%d faults proved redundant by search)", tc.c.Name, tc.mode, searched)
		}
		if tc.long && longest <= 65 {
			t.Fatalf("%s %v: longest redundant path has %d nets; the multi-round search is not exercised", tc.c.Name, tc.mode, longest)
		}
		if !maps.Equal(g.redundantPrefixes, want) {
			for k := range want {
				if !g.redundantPrefixes[k] {
					t.Errorf("%s %v: reference prefix %s not recorded", tc.c.Name, tc.mode, k)
				}
			}
			for k := range g.redundantPrefixes {
				if !want[k] {
					t.Errorf("%s %v: recorded prefix %s is not a shortest conflicting prefix", tc.c.Name, tc.mode, k)
				}
			}
		}
		t.Logf("%s %v: %d prefixes from %d searched redundant faults, longest path %d nets", tc.c.Name, tc.mode, len(want), searched, longest)
	}
}

// BenchmarkRedundantPrefix measures recording one redundant subpath
// (recordRedundantPrefix) per op, cycling over the c7552 faults a robust run
// proves redundant by search.
func BenchmarkRedundantPrefix(b *testing.B) {
	c, err := bench.Get("c7552")
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 0
	g := New(c, opts)
	faults := paths.SampleFaults(c, 256, 1995)
	results := g.Run(context.Background(), faults)
	var recs []*rec
	for i := range results {
		if results[i].Status != Redundant || results[i].Phase == PhasePruning {
			continue
		}
		r := &rec{fault: faults[i], res: &results[i]}
		if !g.sensitizeRec(r) {
			b.Fatal("cannot sensitize a redundant fault")
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		b.Fatal("no fault of the sample was proved redundant by search")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.recordRedundantPrefix(recs[i%len(recs)])
	}
}
