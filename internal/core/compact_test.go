package core

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/compact"
	"repro/internal/faultsim"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sensitize"
)

// TestShardedCompactedMatchesSequentialCoverage is the cross-layer
// equivalence guarantee of the compaction subsystem: for any worker count,
// the compacted merged set must detect exactly the faults the sequential
// uncompacted run's set detects (measured by full fault simulation over the
// complete fault list), and every detected fault's PatternIndex must point
// at a pattern of the compacted set that really detects it.
func TestShardedCompactedMatchesSequentialCoverage(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 96, 11)

	// Sequential, uncompacted reference.
	ref := New(c, DefaultOptions(sensitize.Robust))
	RunSharded(context.Background(), ref, faults, 1)
	want, err := faultsim.Run(c, ref.TestSet().Pairs, faults, true)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		opts := DefaultOptions(sensitize.Robust)
		opts.Compaction = compact.Full
		g := New(c, opts)
		results := RunSharded(context.Background(), g, faults, workers)
		set := g.TestSet()

		got, err := faultsim.Run(c, set.Pairs, faults, true)
		if err != nil {
			t.Fatal(err)
		}
		for f := range want.Detected {
			if want.Detected[f] != got.Detected[f] {
				t.Fatalf("workers=%d: fault %d detection differs: sequential=%v compacted=%v",
					workers, f, want.Detected[f], got.Detected[f])
			}
		}
		if set.Len() > ref.TestSet().Len() {
			t.Errorf("workers=%d: compacted set (%d pairs) larger than sequential uncompacted (%d)",
				workers, set.Len(), ref.TestSet().Len())
		}

		st := g.Stats()
		if st.Compaction.PairsBefore == 0 || st.Compaction.PairsAfter != set.Len() {
			t.Errorf("workers=%d: compaction stats inconsistent with set: %+v (set %d)",
				workers, st.Compaction, set.Len())
		}

		// Every covered fault must carry a valid index into the compacted set.
		for i, r := range results {
			if !r.Status.Detected() {
				continue
			}
			if r.PatternIndex < 0 || r.PatternIndex >= set.Len() {
				t.Fatalf("workers=%d: fault %d has pattern index %d outside the compacted set (len %d)",
					workers, i, r.PatternIndex, set.Len())
			}
			one, err := faultsim.Run(c, []pattern.Pair{set.Pairs[r.PatternIndex]},
				[]paths.Fault{r.Fault}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !one.Detected[0] {
				t.Fatalf("workers=%d: pattern %d does not detect fault %d after compaction",
					workers, r.PatternIndex, i)
			}
		}
	}
}

// TestCompactionAccumulatesAcrossRuns checks that a second Run on the same
// generator compacts only its own patterns: the first run's compacted
// patterns stay in place.
func TestCompactionAccumulatesAcrossRuns(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	all := paths.SampleFaults(c, 64, 3)
	opts := DefaultOptions(sensitize.Robust)
	opts.Compaction = compact.Full
	g := New(c, opts)

	RunSharded(context.Background(), g, all[:32], 2)
	firstLen := g.TestSet().Len()
	firstPairs := append([]pattern.Pair(nil), g.TestSet().Pairs...)

	RunSharded(context.Background(), g, all[32:], 2)
	if g.TestSet().Len() < firstLen {
		t.Fatalf("second run shrank the first run's patterns: %d -> %d", firstLen, g.TestSet().Len())
	}
	for i := range firstPairs {
		if g.TestSet().Pairs[i].String() != firstPairs[i].String() {
			t.Fatalf("pattern %d of the first run changed during the second run", i)
		}
	}
	// Coverage of both fault subsets must hold on the accumulated set.
	res, err := faultsim.Run(c, g.TestSet().Pairs, all, true)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, d := range res.Detected {
		if d {
			covered++
		}
	}
	if st := g.Stats(); covered < st.Tested+st.DetectedBySim {
		t.Errorf("accumulated set covers %d faults, stats claim %d", covered, st.Tested+st.DetectedBySim)
	}
}

// TestC7552ShardedCompactionReduction is the headline acceptance check: on
// the largest builtin circuit with four workers, full compaction must
// shrink the merged sharded test set by at least 20% while the measured
// fault coverage over the complete fault list stays bit-identical.
func TestC7552ShardedCompactionReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("c7552 generation is expensive; skipped with -short")
	}
	c, err := bench.Get("c7552")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 192, 1995)

	// One sharded run with unfilled tracking but no compaction: its set is
	// the uncompacted baseline, so before/after are measured on the same
	// run.
	opts := DefaultOptions(sensitize.Robust)
	opts.EmitUnfilled = true
	g := New(c, opts)
	RunSharded(context.Background(), g, faults, 4)
	set := g.TestSet()

	before, err := faultsim.Run(c, set.Pairs, faults, true)
	if err != nil {
		t.Fatal(err)
	}
	compacted, st, err := compact.Compact(c, set, faults, true, compact.Full, compact.ZeroFill())
	if err != nil {
		t.Fatal(err)
	}
	after, err := faultsim.Run(c, compacted.Pairs, faults, true)
	if err != nil {
		t.Fatal(err)
	}
	for f := range before.Detected {
		if before.Detected[f] != after.Detected[f] {
			t.Fatalf("coverage not bit-identical at fault %d: before=%v after=%v",
				f, before.Detected[f], after.Detected[f])
		}
	}
	if set.Len() == 0 {
		t.Fatal("no patterns generated")
	}
	reduction := st.Reduction()
	t.Logf("c7552 workers=4: %s", st)
	if reduction < 0.20 {
		t.Errorf("compaction reduced the set by %.1f%%, want >= 20%% (pairs %d -> %d)",
			reduction*100, set.Len(), compacted.Len())
	}
}

// TestFinishingErrorsAreReported plants a pattern of the wrong width in the
// test set, which no path into the set lets through, and checks that the
// drop reconciliation and the compaction report the simulation failure
// through Err instead of returning without a trace.  The test verification
// and, fed the same pattern through ImportPatterns, the interleaved
// simulation's dropping must report it the same way, and a sharded run's
// master takes over a worker's error.
func TestFinishingErrorsAreReported(t *testing.T) {
	c := bench.C17()
	faults := paths.EnumerateFaults(c, 0)
	wide := pattern.NewPair(len(c.Inputs()) + 1)

	opts := DefaultOptions(sensitize.Robust)
	g := New(c, opts)
	results := g.Run(context.Background(), faults)
	if err := g.Err(); err != nil {
		t.Fatalf("clean run: Err = %v", err)
	}
	g.testSet.Add(wide, "wrong width")
	results[0].Status, results[0].PatternIndex = DetectedBySim, -1
	g.reconcileDrops(results)
	if g.Err() == nil {
		t.Error("reconcileDrops over a wrong-width pattern: Err = nil")
	}

	opts.Compaction = compact.Reverse
	g = New(c, opts)
	results = g.Run(context.Background(), faults)
	if g.testSet.Len() < 2 {
		t.Fatalf("c17 run emitted %d patterns, want at least 2", g.testSet.Len())
	}
	g.testSet.Add(wide, "wrong width")
	g.compactRun(faults, results, 0)
	if g.Err() == nil {
		t.Error("compactRun over a wrong-width pattern: Err = nil")
	}

	g = New(c, DefaultOptions(sensitize.Robust))
	if g.verifyPattern(faults[0], wide) || g.Err() == nil {
		t.Errorf("verifying a wrong-width test: Err = %v, want the load failure", g.Err())
	}

	g = New(c, DefaultOptions(sensitize.Robust))
	g.ImportPatterns = func() []pattern.Pair { return []pattern.Pair{wide} }
	g.Run(context.Background(), faults)
	if g.Err() == nil {
		t.Error("dropping with a wrong-width imported pattern: Err = nil")
	}
	worker := g
	g = New(c, DefaultOptions(sensitize.Robust))
	g.absorbState(worker)
	if g.Err() != worker.Err() {
		t.Errorf("after absorbing a failed worker: Err = %v, want %v", g.Err(), worker.Err())
	}
}
