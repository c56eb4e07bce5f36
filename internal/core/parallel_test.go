package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sensitize"
)

// detectedVector fault-simulates the pairs over the faults and returns the
// per-fault detection vector.
func detectedVector(t *testing.T, c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault) []bool {
	t.Helper()
	res, err := faultsim.Run(c, pairs, faults, true)
	if err != nil {
		t.Fatal(err)
	}
	return res.Detected
}

// classOf collapses a status to its coverage class: Tested and DetectedBySim
// both mean "the merged test set covers the fault", and which of the two a
// fault gets depends on the worker interleaving when the cross-worker
// pattern exchange is active.
func classOf(s Status) string {
	if s.Detected() {
		return "detected"
	}
	return s.String()
}

// TestShardedMatchesSequential checks the cornerstone of the scheduler-driven
// engine on several circuits and modes: any worker count must classify
// every fault the same as one worker, the paper's sequential generator.  With the interleaved
// simulation disabled every fault's search is independent, so the statuses
// must match exactly; with it enabled, Tested and DetectedBySim may swap
// (coverage class equality), but redundancy proofs and the merged coverage
// must not move.
func TestShardedMatchesSequential(t *testing.T) {
	for _, name := range []string{"c17", "paper", "redundant", "adder8", "cmp8"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := paths.EnumerateFaults(c, 0)
		for _, mode := range []sensitize.Mode{sensitize.Robust, sensitize.Nonrobust} {
			for _, simInterval := range []int{0, 4} {
				opts := DefaultOptions(mode)
				opts.FaultSimInterval = simInterval
				seq := New(c, opts)
				want := RunSharded(context.Background(), seq, faults, 1)
				for _, workers := range []int{2, 3, 8} {
					g := New(c, opts)
					got := RunSharded(context.Background(), g, faults, workers)
					if len(got) != len(want) {
						t.Fatalf("%s: %d sharded results for %d faults", name, len(got), len(faults))
					}
					for i := range got {
						if got[i].Fault.Key() != want[i].Fault.Key() {
							t.Fatalf("%s workers=%d: result %d is for fault %s, want %s (merge order broken)",
								name, workers, i, got[i].Fault.Key(), want[i].Fault.Key())
						}
						if simInterval == 0 {
							if got[i].Status != want[i].Status {
								t.Errorf("%s workers=%d mode=%v: fault %s is %v, sequential says %v",
									name, workers, mode, got[i].Fault.Key(), got[i].Status, want[i].Status)
							}
						} else if classOf(got[i].Status) != classOf(want[i].Status) {
							t.Errorf("%s workers=%d mode=%v sim=%d: fault %s is %v, sequential says %v",
								name, workers, mode, simInterval, got[i].Fault.Key(), got[i].Status, want[i].Status)
						}
					}
					gs, ss := g.Stats(), seq.Stats()
					if gs.Faults != ss.Faults || gs.Redundant != ss.Redundant ||
						gs.Tested+gs.DetectedBySim != ss.Tested+ss.DetectedBySim ||
						gs.Aborted != ss.Aborted {
						t.Errorf("%s workers=%d: sharded stats %v disagree with sequential %v",
							name, workers, gs, ss)
					}
				}
			}
		}
	}
}

// TestShardedPatternIndices checks that every merged result's PatternIndex
// points at a pattern of the merged test set that actually detects the
// fault, for tested and simulation-dropped faults alike.
func TestShardedPatternIndices(t *testing.T) {
	c, err := bench.Get("adder8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 2 // aggressive dropping to exercise the exchange
	g := New(c, opts)
	results := RunSharded(context.Background(), g, faults, 4)
	set := g.TestSet()
	if set.Len() == 0 {
		t.Fatal("no patterns generated")
	}
	sim := New(c, opts).sim
	for _, r := range results {
		if !r.Status.Detected() {
			continue
		}
		if r.PatternIndex < 0 || r.PatternIndex >= set.Len() {
			t.Errorf("fault %s (%v) has pattern index %d outside the merged set (len %d)",
				r.Fault.Key(), r.Status, r.PatternIndex, set.Len())
			continue
		}
		if _, err := sim.Load([]pattern.Pair{set.Pairs[r.PatternIndex]}); err != nil {
			t.Fatal(err)
		}
		if sim.Detects(r.Fault, true) == 0 {
			t.Errorf("pattern %d does not detect fault %s it is recorded for",
				r.PatternIndex, r.Fault.Key())
		}
	}
}

// TestShardedSettleCallback checks that the serialized OnSettle callback
// fires exactly once per fault across all workers, with the fault's position
// in the input list.
func TestShardedSettleCallback(t *testing.T) {
	c, err := bench.Get("cmp8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	var mu sync.Mutex
	seen := make(map[string]int)
	g := New(c, DefaultOptions(sensitize.Nonrobust))
	g.OnSettle = func(i int, r FaultResult) {
		mu.Lock()
		defer mu.Unlock()
		seen[r.Fault.Key()]++
		if k := faults[i].Key(); k != r.Fault.Key() {
			t.Errorf("OnSettle reported %s at index %d, which holds %s", r.Fault.Key(), i, k)
		}
	}
	RunSharded(context.Background(), g, faults, 4)
	if len(seen) != len(faults) {
		t.Fatalf("OnSettle saw %d distinct faults, want %d", len(seen), len(faults))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("fault %s settled %d times", k, n)
		}
	}
}

// searchEffort is the search effort of a run: the Stats counters that must
// not depend on how the run's units were spread over workers.
type searchEffort struct {
	Implications, Decisions, Backtracks, FPTPGGroups, APTPGFaults int
}

func searchCounts(s Stats) searchEffort {
	return searchEffort{s.Implications, s.Decisions, s.Backtracks, s.FPTPGGroups, s.APTPGFaults}
}

// writtenSet returns the test set as Write serializes it.
func writtenSet(t *testing.T, set *pattern.Set) string {
	t.Helper()
	var sb strings.Builder
	if err := set.Write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// firstLineDiff describes the first line at which two texts differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, reference has %d", len(g), len(w))
}

// TestSchedulerDeterminism is the determinism matrix of the dispatch layer:
// with the interleaved simulation off, every worker count in {1,2,4,8} must
// produce the per-fault outcomes (status, phase, pattern index, decisions,
// backtracks), search counts and written test set of one worker, byte for
// byte, at every compaction level — the outcome may not depend on how work
// was spread over cores or which units were stolen, and one worker goes
// through the same canonical merge as eight.  A unit's outcome depends on
// the unit alone, so this holds for the phase of every redundant fault too.
// The c880 sample proves 536 of its faults redundant, 248 of them through an
// unsensitizable subpath shared with an earlier fault of the sample.
func TestSchedulerDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults func(*circuit.Circuit) []paths.Fault
	}{
		{"adder8", func(c *circuit.Circuit) []paths.Fault { return paths.EnumerateFaults(c, 0) }},
		{"c880", func(c *circuit.Circuit) []paths.Fault { return paths.SampleFaults(c, 1000, 1995) }},
	} {
		c, err := bench.Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		faults := tc.faults(c)
		for _, level := range []compact.Level{compact.None, compact.Reverse, compact.Full} {
			opts := DefaultOptions(sensitize.Robust)
			opts.FaultSimInterval = 0
			opts.Compaction = level

			ref := New(c, opts)
			want := RunSharded(context.Background(), ref, faults, 1)
			wantSet := writtenSet(t, ref.TestSet())
			for _, workers := range []int{2, 4, 8} {
				g := New(c, opts)
				got := RunSharded(context.Background(), g, faults, workers)
				tag := fmt.Sprintf("%s compaction=%v workers=%d", tc.name, level, workers)
				differ := 0
				for i := range got {
					r, w := got[i], want[i]
					if r.Status != w.Status || r.Phase != w.Phase || r.PatternIndex != w.PatternIndex ||
						r.Decisions != w.Decisions || r.Backtracks != w.Backtracks {
						if differ++; differ <= 5 {
							t.Errorf("%s: fault %s is %v/%v index %d (%d decisions, %d backtracks), one worker %v/%v index %d (%d, %d)",
								tag, r.Fault.Key(), r.Status, r.Phase, r.PatternIndex, r.Decisions, r.Backtracks,
								w.Status, w.Phase, w.PatternIndex, w.Decisions, w.Backtracks)
						}
					}
				}
				if differ > 0 {
					t.Errorf("%s: %d of %d faults differ from one worker's", tag, differ, len(got))
				}
				if gc, wc := searchCounts(g.Stats()), searchCounts(ref.Stats()); gc != wc {
					t.Errorf("%s: search counts %+v, one worker %+v", tag, gc, wc)
				}
				if gotSet := writtenSet(t, g.TestSet()); gotSet != wantSet {
					t.Errorf("%s: written test set differs from one worker's at %s", tag, firstLineDiff(gotSet, wantSet))
				}
			}
		}
	}
}

// TestWideWidthsMatchOneWord pins what lets every width run on one machine
// word: with the interleaved simulation off, widths 64, 96 and 128 give the
// same per-fault outcomes (status, phase, pattern index, decisions,
// backtracks), the same decisions, backtracks and APTPG searches, the same
// classification counts and the same written test set, at one and two
// workers, in both classes.  Bit levels are independent, so how a unit's
// faults are grouped decides nothing; only the implication and FPTPG group
// counts follow the grouping.
func TestWideWidthsMatchOneWord(t *testing.T) {
	c, err := bench.Get("c880")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 512, 1995)
	for _, mode := range []sensitize.Mode{sensitize.Robust, sensitize.Nonrobust} {
		for _, workers := range []int{1, 2} {
			var (
				want      []FaultResult
				wantStats Stats
				wantSet   string
			)
			for _, width := range []int{64, 96, 128} {
				opts := DefaultOptions(mode)
				opts.WordWidth = width
				opts.FaultSimInterval = 0
				opts.Compaction = compact.Full
				g := New(c, opts)
				got := RunSharded(context.Background(), g, faults, workers)
				st, set := g.Stats(), writtenSet(t, g.TestSet())
				if want == nil {
					want, wantStats, wantSet = got, st, set
					continue
				}
				tag := fmt.Sprintf("%v workers=%d width=%d", mode, workers, width)
				for i := range got {
					r, w := got[i], want[i]
					if r.Status != w.Status || r.Phase != w.Phase || r.PatternIndex != w.PatternIndex ||
						r.Decisions != w.Decisions || r.Backtracks != w.Backtracks {
						t.Fatalf("%s: fault %s is %v/%v index %d (%d decisions, %d backtracks), width 64 %v/%v index %d (%d, %d)",
							tag, r.Fault.Key(), r.Status, r.Phase, r.PatternIndex, r.Decisions, r.Backtracks,
							w.Status, w.Phase, w.PatternIndex, w.Decisions, w.Backtracks)
					}
				}
				if st.Decisions != wantStats.Decisions || st.Backtracks != wantStats.Backtracks ||
					st.APTPGFaults != wantStats.APTPGFaults || st.Tested != wantStats.Tested ||
					st.Redundant != wantStats.Redundant || st.Aborted != wantStats.Aborted {
					t.Errorf("%s: stats %v, width 64 %v", tag, st, wantStats)
				}
				if set != wantSet {
					t.Errorf("%s: written test set differs from width 64's at %s", tag, firstLineDiff(set, wantSet))
				}
			}
		}
	}
}

// checkTally checks that the classification counters of st equal the
// counts of the statuses in results.
func checkTally(t *testing.T, tag string, st Stats, results []FaultResult) {
	t.Helper()
	n := map[Status]int{}
	for i := range results {
		n[results[i].Status]++
	}
	got := [5]int{st.Faults, st.Tested, st.Redundant, st.Aborted, st.DetectedBySim}
	want := [5]int{len(results), n[Tested], n[Redundant], n[Aborted], n[DetectedBySim]}
	if got != want {
		t.Errorf("%s: stats count faults/tested/redundant/aborted/sim-detected %v, the results %v", tag, got, want)
	}
}

// TestStatsTallyResults checks the one tally: after a run, local or remote,
// finished or canceled, the classification counters of Stats are the
// counts of the statuses the run returned, with the simulation's drops and
// relabels included.
func TestStatsTallyResults(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 256, 1995)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, simInterval := range []int{0, 8} {
		opts := DefaultOptions(sensitize.Robust)
		opts.WordWidth = 8
		opts.FaultSimInterval = simInterval
		opts.Compaction = compact.Reverse
		for _, workers := range []int{1, 2} {
			g := New(c, opts)
			results := RunSharded(context.Background(), g, faults, workers)
			checkTally(t, fmt.Sprintf("sim=%d local workers=%d", simInterval, workers), g.Stats(), results)
		}
		master := New(c, opts)
		results := dispatchInProcess(context.Background(), NewRemoteRun(master, faults), master, faults, 2)
		checkTally(t, fmt.Sprintf("sim=%d remote", simInterval), master.Stats(), results)

		g := New(c, opts)
		results = RunSharded(canceled, g, faults, 2)
		checkTally(t, fmt.Sprintf("sim=%d canceled local", simInterval), g.Stats(), results)
		if st := g.Stats(); st.Aborted != len(faults) {
			t.Errorf("sim=%d canceled local: %d of %d faults aborted", simInterval, st.Aborted, len(faults))
		}
		master = New(c, opts)
		results = dispatchInProcess(canceled, NewRemoteRun(master, faults), master, faults, 2)
		checkTally(t, fmt.Sprintf("sim=%d canceled remote", simInterval), master.Stats(), results)
	}
}

// TestWidthDeterminism is the width dimension of the determinism matrix:
// with the interleaved simulation off, the per-fault classification may not
// depend on the word width — the single-bit baseline, the one-word width and
// the two-word width must produce bit-identical statuses, sequential or
// sharded.  (Patterns may differ across widths: APTPG enumerates alternatives
// across bit levels, so its pattern choice is width-dependent by design.)
func TestWidthDeterminism(t *testing.T) {
	c, err := bench.Get("adder8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	var want []Status
	for _, width := range []int{1, 64, 128} {
		opts := DefaultOptions(sensitize.Robust)
		opts.WordWidth = width
		opts.FaultSimInterval = 0
		g := New(c, opts)
		res := RunSharded(context.Background(), g, faults, 1)
		got := make([]Status, len(res))
		for i := range res {
			if res[i].Status == Aborted {
				t.Fatalf("width %d: fault %s aborted; the matrix needs complete searches",
					width, res[i].Fault.Key())
			}
			got[i] = res[i].Status
		}
		if want == nil {
			want = got
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("width %d: fault %s is %v, width 1 says %v",
					width, res[i].Fault.Key(), got[i], want[i])
			}
		}
		for _, workers := range []int{2, 8} {
			gs := New(c, opts)
			sharded := RunSharded(context.Background(), gs, faults, workers)
			for i := range sharded {
				if sharded[i].Status != want[i] {
					t.Errorf("width %d workers %d: fault %s is %v, reference says %v",
						width, workers, sharded[i].Fault.Key(), sharded[i].Status, want[i])
				}
			}
		}
	}
}

// TestSchedulerCompactedCoverage completes the determinism matrix on the
// compaction layer: with full compaction and the interleaved simulation on,
// the post-compaction coverage over the complete fault list must be
// bit-identical for every worker count.
func TestSchedulerCompactedCoverage(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 96, 11)
	opts := DefaultOptions(sensitize.Robust)
	opts.Compaction = compact.Full
	var want []bool
	for _, workers := range []int{1, 4} {
		g := New(c, opts)
		RunSharded(context.Background(), g, faults, workers)
		detected := detectedVector(t, c, g.TestSet().Pairs, faults)
		if want == nil {
			want = detected
			continue
		}
		for f := range want {
			if want[f] != detected[f] {
				t.Fatalf("workers=%d: post-compaction coverage differs at fault %d", workers, f)
			}
		}
	}
}

// TestCancellationDrainsQueue cancels a 4-worker run mid-flight:
// RunSharded must return promptly with every fault settled (canceled ones
// Aborted with the cause), and the scheduler queues must not wedge any
// worker.
func TestCancellationDrainsQueue(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 256, 9)
	opts := DefaultOptions(sensitize.Robust)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	settled := 0
	g := New(c, opts)
	var mu sync.Mutex
	g.OnSettle = func(int, FaultResult) {
		mu.Lock()
		defer mu.Unlock()
		settled++
		if settled == 4 {
			cancel()
		}
	}
	results := RunSharded(ctx, g, faults, 4)
	if len(results) != len(faults) {
		t.Fatalf("got %d results for %d faults", len(results), len(faults))
	}
	canceled := 0
	for _, r := range results {
		if r.Status == Pending {
			t.Fatalf("fault %s left Pending after cancellation", r.Fault.Key())
		}
		if r.Err != nil {
			canceled++
			if r.Status != Aborted {
				t.Errorf("canceled fault %s has status %v, want Aborted", r.Fault.Key(), r.Status)
			}
		}
	}
	if canceled == 0 {
		t.Error("no fault was cut short: cancellation did not interrupt the run")
	}
	st := g.Stats()
	if got := st.Tested + st.Redundant + st.Aborted + st.DetectedBySim; got != st.Faults {
		t.Errorf("statuses sum to %d, want %d", got, st.Faults)
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestShardedRunLendsMasterState checks that a 2-worker run forks one
// worker's implication states, not two: worker 0 runs on the master's,
// which the master leaves idle during the run.  On the s38584 stand-in a
// generator's states take about 3.1 MB, so the run's allocations, a few
// faults' worth of search and simulation besides, must stay under one and
// a half generators' worth.  A width of 2 cuts the 4 faults into two units,
// one per worker.
func TestShardedRunLendsMasterState(t *testing.T) {
	c, err := bench.Get("s38584")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(sensitize.Nonrobust)
	opts.WordWidth = 2
	faults := paths.SampleFaults(c, 4, 1995)
	// A first run fills the circuit's memos (testability, input positions).
	RunSharded(context.Background(), New(c, opts), faults, 2)

	var g *Generator
	one := allocated(func() { g = New(c, opts) })
	var results []FaultResult
	run := allocated(func() { results = RunSharded(context.Background(), g, faults, 2) })
	t.Logf("one generator: %d bytes; a 2-worker run: %d bytes", one, run)
	if run >= one+one/2 {
		t.Errorf("a 2-worker run allocated %d bytes; one generator's states take %d, so it forked more than one worker", run, one)
	}
	for _, r := range results {
		if r.Status == Pending {
			t.Fatalf("fault %s left pending", r.Fault.Key())
		}
	}
}

// TestShardedRunBuildsNoIdleWorkers checks that a run starts no more
// workers than it has units: 8 workers asked for on 64 faults, one unit at
// the default width, must run on the master's states alone and build no
// generator that would never claim a unit.
func TestShardedRunBuildsNoIdleWorkers(t *testing.T) {
	c, err := bench.Get("s38584")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(sensitize.Nonrobust)
	faults := paths.SampleFaults(c, opts.WordWidth, 1995)
	// A first run fills the circuit's memos (testability, input positions).
	RunSharded(context.Background(), New(c, opts), faults, 1)

	var g *Generator
	one := allocated(func() { g = New(c, opts) })
	run := allocated(func() { RunSharded(context.Background(), g, faults, 8) })
	t.Logf("one generator: %d bytes; an 8-worker one-unit run: %d bytes", one, run)
	if run >= one+one/2 {
		t.Errorf("an 8-worker run over one unit allocated %d bytes; one generator's states take %d, so it built idle workers", run, one)
	}
	if units := g.Stats().Sched.Units; units != 1 {
		t.Errorf("the run cut %d units, want 1", units)
	}
}

// TestConsecutiveShardedRunsMatchFreshEngines checks that the state a
// sharded run leaves behind — worker 0 ran on the master's implication
// states and simulator, and the run's tail simulated on them — does not leak
// into the next run: two consecutive runs on one generator give the
// outcomes (phases included), search counts and compacted test sets of two
// fresh generators.  With the interleaved simulation on, one worker's
// outcomes are deterministic too, and its dropping must not see the earlier
// run's patterns.
func TestConsecutiveShardedRunsMatchFreshEngines(t *testing.T) {
	c, err := bench.Get("c880")
	if err != nil {
		t.Fatal(err)
	}
	runs := [][]paths.Fault{paths.SampleFaults(c, 256, 1), paths.SampleFaults(c, 256, 2)}
	for _, tc := range []struct {
		sim     int
		level   compact.Level
		workers []int
	}{
		{0, compact.Full, []int{1, 2, 3}},
		{64, compact.None, []int{1}},
	} {
		opts := DefaultOptions(sensitize.Robust)
		opts.FaultSimInterval = tc.sim
		opts.Compaction = tc.level
		for _, workers := range tc.workers {
			g := New(c, opts)
			for k, faults := range runs {
				tag := fmt.Sprintf("sim=%d workers=%d run %d", tc.sim, workers, k+1)
				base := g.TestSet().Len()
				got := RunSharded(context.Background(), g, faults, workers)
				fresh := New(c, opts)
				want := RunSharded(context.Background(), fresh, faults, workers)
				for i := range want {
					w, r := want[i], got[i]
					if w.PatternIndex >= 0 {
						w.PatternIndex += base
					}
					if r.Status != w.Status || r.Phase != w.Phase || r.PatternIndex != w.PatternIndex ||
						r.Decisions != w.Decisions || r.Backtracks != w.Backtracks {
						t.Fatalf("%s fault %s: %v/%v index %d (%d decisions, %d backtracks), fresh engine %v/%v index %d (%d, %d)",
							tag, r.Fault.Key(), r.Status, r.Phase, r.PatternIndex, r.Decisions, r.Backtracks,
							w.Status, w.Phase, w.PatternIndex, w.Decisions, w.Backtracks)
					}
				}
				if got, want := g.TestSet().Slice(base).String(), fresh.TestSet().String(); got != want {
					t.Errorf("%s: the run's test set differs from a fresh engine's", tag)
				}
			}
		}
	}
}
