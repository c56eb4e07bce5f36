package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
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

// searchAllQueued runs the subpath search for every queued fault, as the
// pruning check does for the faults of one head.
func searchAllQueued(g *Generator) {
	for h := range g.prefixQueue {
		g.searchQueued(h)
	}
}

// TestRedundantPrefixMatchesReference checks every recorded redundant
// subpath against shortestConflictingPrefix: once every queued fault has
// been searched, the set of recorded prefixes must be exactly the
// reference's shortest conflicting prefixes of the faults proved redundant
// by search.
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
		// so every fault its closure proved redundant was queued.
		opts.FaultSimInterval = 0
		g := New(tc.c, opts)
		faults := paths.SampleFaults(tc.c, tc.faults, 1995)
		results := g.Run(context.Background(), faults)
		searchAllQueued(g)

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
			want[string(appendPrefixKey(nil, r.fault.Transition, r.fault.Path.Nets[:n]))] = true
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
// (recordRedundantPrefix, on the generator's own state) per op, cycling over
// the c7552 faults a robust run proves redundant by search.
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
		r := recs[i%len(recs)]
		g.recordRedundantPrefix(r.fault, r.cond.Assignments)
	}
}

// BenchmarkPruneCheck measures the pruning check (pruneIfKnownRedundant) of
// a 3,000-fault c880 list per op, against the prefixes a robust run of the
// list recorded and with an empty queue.  The check must not allocate.
func BenchmarkPruneCheck(b *testing.B) {
	c, err := bench.Get("c880")
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 0
	g := New(c, opts)
	faults := paths.SampleFaults(c, 3000, 1995)
	g.Run(context.Background(), faults)
	searchAllQueued(g)
	_, recs := newRecs(faults)
	check := func() (pruned int) {
		for _, r := range recs {
			r.res.Status = Pending
			if g.pruneIfKnownRedundant(r) {
				pruned++
			}
		}
		return pruned
	}
	// A first pass grows the key buffer to the longest path.
	if check() == 0 {
		b.Fatal("no fault of the list contains a recorded prefix")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check()
	}
}

// TestPruningChangesNoVerdict runs each case with subpath pruning on and off.
// A recorded prefix conflicts by its closure alone, and a fault containing
// it carries a superset of its requirements, so that fault's own first
// implication conflicts too: pruning may only relabel a Redundant fault's
// phase (pruning instead of fptpg or aptpg) and skip its search.  Statuses,
// test sets and per-fault search counts must match exactly.  With the
// interleaved simulation on, two workers may swap Tested and DetectedBySim
// labels from run to run, so that configuration runs at one worker only.
func TestPruningChangesNoVerdict(t *testing.T) {
	get := func(name string) *circuit.Circuit {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c880, c7552 := get("c880"), get("c7552")
	parity, adder := bench.ParityTree(6), bench.Adder(4)
	for _, tc := range []struct {
		c      *circuit.Circuit
		mode   sensitize.Mode
		faults int // 0: every structural fault
		// prunes requires pruning to settle at least one fault.
		prunes bool
	}{
		{c880, sensitize.Robust, 3000, true},
		{c880, sensitize.Nonrobust, 3000, true},
		{c7552, sensitize.Robust, 1024, true},
		{c7552, sensitize.Nonrobust, 1024, true},
		{get("c1908"), sensitize.Robust, 1024, true},
		{get("c6288"), sensitize.Robust, 1024, true},
		{parity, sensitize.Robust, 0, false},
		{parity, sensitize.Nonrobust, 0, false},
		{adder, sensitize.Robust, 0, false},
		{adder, sensitize.Nonrobust, 0, false},
	} {
		var faults []paths.Fault
		if tc.faults > 0 {
			faults = paths.SampleFaults(tc.c, tc.faults, 1995)
		} else {
			faults = paths.EnumerateFaults(tc.c, 0)
		}
		for _, cfg := range []struct{ sim, workers int }{{0, 1}, {0, 2}, {logic.WordWidth, 1}} {
			name := fmt.Sprintf("%s/%v/sim%d/w%d", tc.c.Name, tc.mode, cfg.sim, cfg.workers)
			run := func(pruning bool) ([]FaultResult, *Generator) {
				opts := DefaultOptions(tc.mode)
				opts.FaultSimInterval = cfg.sim
				opts.SubpathPruning = pruning
				g := New(tc.c, opts)
				return RunSharded(context.Background(), g, faults, cfg.workers), g
			}
			on, gOn := run(true)
			off, gOff := run(false)
			relabeled := 0
			for i := range on {
				a, b := on[i], off[i]
				if a.Status != b.Status || a.PatternIndex != b.PatternIndex ||
					a.Decisions != b.Decisions || a.Backtracks != b.Backtracks {
					t.Fatalf("%s: fault %s: %v/%v index %d (%d decisions, %d backtracks) with pruning, %v/%v index %d (%d, %d) without",
						name, a.Fault.Describe(tc.c), a.Status, a.Phase, a.PatternIndex, a.Decisions, a.Backtracks,
						b.Status, b.Phase, b.PatternIndex, b.Decisions, b.Backtracks)
				}
				if a.Phase != b.Phase {
					if a.Status != Redundant || a.Phase != PhasePruning {
						t.Fatalf("%s: fault %s: phase %v with pruning, %v without", name, a.Fault.Describe(tc.c), a.Phase, b.Phase)
					}
					relabeled++
				}
			}
			if gOn.TestSet().String() != gOff.TestSet().String() {
				t.Errorf("%s: the test set differs with pruning", name)
			}
			pruned := gOn.Stats().PrunedRedundant
			if tc.prunes && pruned == 0 {
				t.Errorf("%s: pruning settled no fault", name)
			}
			if cfg.sim == 0 && relabeled != pruned {
				t.Errorf("%s: %d faults relabeled, stats.PrunedRedundant = %d", name, relabeled, pruned)
			}
			t.Logf("%s: %d of %d faults pruned", name, pruned, len(faults))
		}
	}
}

// TestPrefixSearchOnDemand follows the subpath search unit by unit on c880.
// After the first unit, each fault whose own closure proved it redundant is
// queued under its head, and no prefix is recorded yet.  A later unit holding
// a fault of a queued head searches exactly that head's faults and prunes the
// fault with the recorded prefix.  A later unit whose faults match no queued
// head, not even in the transition and first net, searches nothing.
func TestPrefixSearchOnDemand(t *testing.T) {
	c, err := bench.Get("c880")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 0
	faults := paths.SampleFaults(c, 3000, 1995)
	ctx := context.Background()
	ref := implic.NewStateWidth(c, 1)

	// The first unit leads with four faults an exhausted search proves
	// redundant, and the sample's first faults fill it up.
	opts.SubpathPruning = false
	probe := New(c, opts).Run(ctx, faults)
	opts.SubpathPruning = true
	var order []paths.Fault
	for i, r := range probe {
		if r.Status == Redundant && r.Phase == PhaseAPTPG && len(order) < 4 {
			order = append(order, faults[i])
			faults[i] = paths.Fault{}
		}
	}
	for _, f := range faults {
		if f.Path.Len() > 0 {
			order = append(order, f)
		}
	}
	_, recs := newRecs(order)
	g := New(c, opts)

	// The first unit: queued exactly when the closure conflicts.
	first := recs[:opts.WordWidth]
	g.processUnit(ctx, first)
	prefixLen := make(map[*rec]int) // the reference prefix of each queued fault
	aptpgProved := 0
	for _, r := range first {
		h, _ := headOf(r.fault)
		queued := holdsFault(g.prefixQueue[h], r.fault)
		n := 0
		if r.res.Status == Redundant {
			n = shortestConflictingPrefix(t, g, ref, r)
			if n == 0 {
				aptpgProved++
			}
		}
		if queued != (n > 0) {
			t.Errorf("%s (%v/%v): queued %v, shortest conflicting prefix %d", r.fault.Describe(c), r.res.Status, r.res.Phase, queued, n)
		}
		if n > 0 {
			prefixLen[r] = n
		}
	}
	if len(prefixLen) == 0 || aptpgProved == 0 {
		t.Fatalf("the first unit queued %d faults and proved %d redundant by an exhausted search; the test needs both", len(prefixLen), aptpgProved)
	}
	if len(g.redundantPrefixes) != 0 {
		t.Fatalf("the first unit recorded %d prefixes; the search must wait for a fault that can use them", len(g.redundantPrefixes))
	}

	// A fault of a queued head that the head's prefixes prune.
	var hit *rec
	for _, r := range recs[len(first):] {
		for q, n := range prefixLen {
			if sameHead(q.fault, r.fault) && n <= r.fault.Path.Len() && slices.Equal(q.fault.Path.Nets[:n], r.fault.Path.Nets[:n]) {
				hit = r
			}
		}
		if hit != nil {
			break
		}
	}
	if hit == nil {
		t.Fatal("no later fault contains a queued fault's prefix")
	}
	want := make(map[string]bool)
	for q, n := range prefixLen {
		if sameHead(q.fault, hit.fault) {
			want[string(appendPrefixKey(nil, q.fault.Transition, q.fault.Path.Nets[:n]))] = true
		}
	}
	before := queuedKeys(g)
	g.processUnit(ctx, []*rec{hit})
	if hit.res.Status != Redundant || hit.res.Phase != PhasePruning {
		t.Errorf("%s: %v/%v, want pruned", hit.fault.Describe(c), hit.res.Status, hit.res.Phase)
	}
	for q := range prefixLen {
		if sameHead(q.fault, hit.fault) {
			delete(before, q.fault.Key())
		}
	}
	if after := queuedKeys(g); !maps.Equal(after, before) {
		t.Errorf("searching one head left %d queued faults, want %d", len(after), len(before))
	}
	if !maps.Equal(g.redundantPrefixes, want) {
		t.Errorf("recorded %d prefixes, want the %d of the searched head's faults", len(g.redundantPrefixes), len(want))
	}

	// Faults that share a queued fault's transition and first net but not
	// its second, or its first two nets but not its transition, search
	// nothing.
	var queued []paths.Fault
	for _, fs := range g.prefixQueue {
		queued = append(queued, fs...)
	}
	near := func(f paths.Fault) bool {
		return !slices.ContainsFunc(queued, func(q paths.Fault) bool { return sameHead(q, f) })
	}
	var miss []*rec
	siblings := 0
	for _, q := range queued {
		for _, r := range recs[len(first):] {
			if r.res.Status == Pending && r.fault.Transition == q.Transition && r.fault.Path.Len() > 1 &&
				r.fault.Path.Nets[0] == q.Path.Nets[0] && near(r.fault) && !slices.Contains(miss, r) {
				miss = append(miss, r)
				siblings++
				break
			}
		}
		if flipped := (paths.Fault{Path: q.Path, Transition: q.Transition.Invert()}); near(flipped) {
			_, rs := newRecs([]paths.Fault{flipped})
			miss = append(miss, rs[0])
		}
	}
	if siblings == 0 || siblings == len(miss) {
		t.Fatalf("%d faults near a queued head, %d of them sharing its first net; the test needs both kinds", len(miss), siblings)
	}
	before = queuedKeys(g)
	recorded := maps.Clone(g.redundantPrefixes)
	g.processUnit(ctx, miss)
	after := queuedKeys(g)
	for k := range before {
		if !after[k] {
			t.Errorf("a unit of no queued head searched %s", k)
		}
	}
	if !maps.Equal(g.redundantPrefixes, recorded) {
		t.Errorf("a unit of no queued head recorded %d prefixes", len(g.redundantPrefixes)-len(recorded))
	}
	t.Logf("first unit: %d queued, %d proved by an exhausted search; one head's search recorded %d prefixes; %d faults near queued heads, %d sharing the first net",
		len(prefixLen), aptpgProved, len(want), len(miss), siblings)
}

// sameHead reports whether two faults share the transition and the first
// two nets, the part every recorded prefix starts with.
func sameHead(a, b paths.Fault) bool {
	return a.Transition == b.Transition && a.Path.Len() > 1 && b.Path.Len() > 1 &&
		a.Path.Nets[0] == b.Path.Nets[0] && a.Path.Nets[1] == b.Path.Nets[1]
}

// queuedKeys returns the keys of the queued faults.
func queuedKeys(g *Generator) map[string]bool {
	m := make(map[string]bool)
	for _, fs := range g.prefixQueue {
		for _, f := range fs {
			m[f.Key()] = true
		}
	}
	return m
}

// TestAbsorbQueues checks the prefix queue a sharded run leaves on its
// master.  Every worker starts from a copy of the master's queue: a fault of
// it that some worker searched must not come back, one that no worker
// searched stays, and a fault the workers queued during the run comes back
// once however many of them queued it.
func TestAbsorbQueues(t *testing.T) {
	c, err := bench.Get("c880")
	if err != nil {
		t.Fatal(err)
	}
	var fs []paths.Fault // four faults of distinct heads
	for _, f := range paths.SampleFaults(c, 64, 1995) {
		if f.Path.Len() > 1 && !slices.ContainsFunc(fs, func(q paths.Fault) bool { return sameHead(q, f) }) {
			fs = append(fs, f)
		}
	}
	if len(fs) < 4 {
		t.Fatalf("only %d faults of distinct heads", len(fs))
	}
	enqueue := func(g *Generator, faults ...paths.Fault) {
		for _, f := range faults {
			h, _ := headOf(f)
			g.prefixQueue[h] = append(g.prefixQueue[h], f)
		}
	}
	kept, searched, both, one := fs[0], fs[1], fs[2], fs[3]
	master := New(c, DefaultOptions(sensitize.Robust))
	enqueue(master, kept, searched)
	w0, w1 := master.lend(), master.Fork()
	hs, _ := headOf(searched)
	w1.searchQueued(hs)
	enqueue(w0, both)
	enqueue(w1, both, one)
	master.absorbQueues([]*Generator{w0, w1})
	want := map[string]bool{kept.Key(): true, both.Key(): true, one.Key(): true}
	if got := queuedKeys(master); !maps.Equal(got, want) {
		t.Errorf("master queue after the run: %v, want %v", got, want)
	}
	if hb, _ := headOf(both); len(master.prefixQueue[hb]) != 1 {
		t.Errorf("a fault both workers queued is queued %d times", len(master.prefixQueue[hb]))
	}
}
