package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/compact"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sensitize"
)

// dispatchInProcess runs a RemoteRun with an in-process transport: workers
// goroutines over fresh generators pull whole units from a channel, process
// them with ProcessRemoteUnit, and apply outcomes and effort back onto the
// run.  As the coordinator does, it publishes the tests of the tested
// outcomes it applies, and hands each worker those published since the
// worker's previous unit (its own included, which only repeats patterns its
// pool holds).  It is the loopback model of the service coordinator/worker
// pair, minus HTTP.
func dispatchInProcess(ctx context.Context, rr *RemoteRun, master *Generator, faults []paths.Fault, workers int) []FaultResult {
	wks := make([]*Generator, workers)
	for i := range wks {
		wks[i] = New(master.c, master.opts)
	}
	var mu sync.Mutex
	var published []pattern.Pair
	seen := make([]int, workers) // per-worker count of published tests delivered
	return rr.Run(ctx, func(units []sched.Unit) sched.Stats {
		ch := make(chan sched.Unit)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				g := wks[w]
				for u := range ch {
					ufaults := make([]paths.Fault, len(u.Faults))
					for i, fi := range u.Faults {
						ufaults[i] = faults[fi]
					}
					mu.Lock()
					foreign := published[seen[w]:]
					seen[w] = len(published)
					mu.Unlock()
					outs, effort := g.ProcessRemoteUnit(ctx, ufaults, foreign)
					mu.Lock()
					for _, o := range outs {
						if o.Status == Tested {
							published = append(published, o.Test)
						}
					}
					mu.Unlock()
					rr.Apply(u.Faults, outs)
					rr.AddEffort(effort)
				}
			}(w)
		}
		for _, u := range units {
			ch <- u
		}
		close(ch)
		wg.Wait()
		return sched.Stats{Units: len(units)}
	})
}

// TestRemoteRunMatchesLocal is the distributed counterpart of
// TestShardedMatchesSequential: a RemoteRun dispatched to in-process remote
// workers must classify every fault like the local sharded engine with the
// same options, at one and at two local workers.  With the interleaved
// simulation off, unit outcomes are pure functions of the unit, so
// statuses, phases, pattern indices, the written test set and the search
// counts must all be bit-identical; with it on, outcomes depend on pattern
// arrival order, so — as across local workers — the coverage class and the
// redundancy proofs must match.
func TestRemoteRunMatchesLocal(t *testing.T) {
	for _, name := range []string{"c17", "paper", "redundant", "adder8", "c432"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := paths.EnumerateFaults(c, 0)
		if len(faults) > 256 {
			faults = paths.SampleFaults(c, 256, 1995)
		}
		for _, simInterval := range []int{0, 8} {
			opts := DefaultOptions(sensitize.Robust)
			opts.WordWidth = 8 // many units to dispatch
			opts.FaultSimInterval = simInterval
			opts.Compaction = compact.Reverse

			master := New(c, opts)
			rr := NewRemoteRun(master, faults)
			got := dispatchInProcess(context.Background(), rr, master, faults, 2)
			if len(got) != len(faults) {
				t.Fatalf("%s sim=%d: %d remote results for %d faults", name, simInterval, len(got), len(faults))
			}

			for _, workers := range []int{1, 2} {
				tag := fmt.Sprintf("%s sim=%d workers=%d", name, simInterval, workers)
				local := New(c, opts)
				want := RunSharded(context.Background(), local, faults, workers)
				for i := range got {
					if simInterval == 0 {
						if got[i].Status != want[i].Status || got[i].Phase != want[i].Phase {
							t.Errorf("%s: fault %s is %v/%v remote, %v/%v local",
								tag, got[i].Fault.Key(), got[i].Status, got[i].Phase, want[i].Status, want[i].Phase)
						}
						if got[i].PatternIndex != want[i].PatternIndex {
							t.Errorf("%s: fault %s pattern index %d remote, %d local",
								tag, got[i].Fault.Key(), got[i].PatternIndex, want[i].PatternIndex)
						}
					} else if classOf(got[i].Status) != classOf(want[i].Status) {
						t.Errorf("%s: fault %s is %v remote, %v local (coverage class moved)",
							tag, got[i].Fault.Key(), got[i].Status, want[i].Status)
					}
				}
				if simInterval == 0 {
					if ls, rs := writtenSet(t, local.TestSet()), writtenSet(t, master.TestSet()); ls != rs {
						t.Errorf("%s: written test sets differ at %s", tag, firstLineDiff(rs, ls))
					}
					ls, rs := local.Stats(), master.Stats()
					if ls.Tested != rs.Tested || ls.Redundant != rs.Redundant ||
						ls.Aborted != rs.Aborted ||
						searchCounts(ls) != searchCounts(rs) {
						t.Errorf("%s: stats differ: local %+v remote %+v", tag, ls, rs)
					}
				}
				if lc, rc := local.Stats().Coverage(), master.Stats().Coverage(); lc != rc {
					t.Errorf("%s: coverage %v remote, %v local", tag, rc, lc)
				}
			}
		}
	}
}

// TestRemoteApplyDuplicateIsNoop models the at-least-once path: a unit whose
// lease timed out is processed by a second worker, and the first worker's
// result still arrives.  Applying the same outcomes twice must not change
// any result, statistic or the merged test set.
func TestRemoteApplyDuplicateIsNoop(t *testing.T) {
	c, err := bench.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 0

	master := New(c, opts)
	rr := NewRemoteRun(master, faults)
	var dispatched sched.Stats
	results := rr.Run(context.Background(), func(units []sched.Unit) sched.Stats {
		wk := New(c, opts)
		for _, u := range units {
			ufaults := make([]paths.Fault, len(u.Faults))
			for i, fi := range u.Faults {
				ufaults[i] = faults[fi]
			}
			outs, _ := wk.ProcessRemoteUnit(context.Background(), ufaults, nil)
			if settled := rr.Apply(u.Faults, outs); len(settled) == 0 {
				t.Errorf("unit %v settled no faults", u.Faults)
			}
			// The duplicate: same unit, same outcomes, must settle nothing.
			if settled := rr.Apply(u.Faults, outs); len(settled) != 0 {
				t.Errorf("duplicate apply settled %v", settled)
			}
		}
		dispatched = sched.Stats{Units: len(units), Leases: 2 * len(units), Duplicates: len(units)}
		return dispatched
	})
	st := master.Stats()
	if st.Sched != dispatched {
		t.Errorf("master's dispatch counters %+v, want the pass's %+v", st.Sched, dispatched)
	}
	if st.Tested+st.Redundant+st.Aborted+st.DetectedBySim != len(faults) {
		t.Errorf("classifications sum to %d, want %d (duplicate apply double-counted)",
			st.Tested+st.Redundant+st.Aborted+st.DetectedBySim, len(faults))
	}
	if master.TestSet().Len() != st.Tested {
		t.Errorf("set=%d tested=%d: merged set inconsistent", master.TestSet().Len(), st.Tested)
	}
	seq := New(c, opts)
	want := RunSharded(context.Background(), seq, faults, 1)
	for i := range results {
		if results[i].Status != want[i].Status {
			t.Errorf("fault %s: %v remote, %v sequential", results[i].Fault.Key(), results[i].Status, want[i].Status)
		}
	}
}

// TestRemoteRunCanceled checks cancellation: a run whose context dies
// mid-pass must stop dispatching, mark every unsettled fault Aborted with
// the cancellation cause, and skip compaction.
func TestRemoteRunCanceled(t *testing.T) {
	c, err := bench.Get("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.SampleFaults(c, 64, 1995)
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 0
	opts.WordWidth = 8 // several units per pass, so the cancel lands mid-pass

	ctx, cancel := context.WithCancel(context.Background())
	master := New(c, opts)
	rr := NewRemoteRun(master, faults)
	applied := 0
	results := rr.Run(ctx, func(units []sched.Unit) sched.Stats {
		wk := New(c, opts)
		for i, u := range units {
			if i == 2 {
				cancel() // the coordinator lost the job mid-pass
				return sched.Stats{}
			}
			ufaults := make([]paths.Fault, len(u.Faults))
			for j, fi := range u.Faults {
				ufaults[j] = faults[fi]
			}
			outs, _ := wk.ProcessRemoteUnit(ctx, ufaults, nil)
			rr.Apply(u.Faults, outs)
			applied += len(u.Faults)
		}
		return sched.Stats{}
	})
	if applied == 0 {
		t.Fatal("no units applied before cancellation")
	}
	aborted := 0
	for i := range results {
		if results[i].Status == Pending {
			t.Errorf("fault %s still pending after canceled run", results[i].Fault.Key())
		}
		if results[i].Status == Aborted && results[i].Err != nil {
			aborted++
		}
	}
	if aborted == 0 {
		t.Error("canceled run reported no fault with a cancellation cause")
	}
}

// TestImportRemoteRun checks the client-side fold: importing a finished
// remote run into a fresh generator must reproduce the coordinator's test
// set, rebased pattern indices and statistics.
func TestImportRemoteRun(t *testing.T) {
	c, err := bench.Get("adder8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	opts := DefaultOptions(sensitize.Robust)
	opts.FaultSimInterval = 0

	master := New(c, opts)
	rr := NewRemoteRun(master, faults)
	results := dispatchInProcess(context.Background(), rr, master, faults, 2)

	client := New(c, opts)
	imported := client.ImportRemoteRun(results, master.TestSet(), master.Stats())
	if client.TestSet().Len() != master.TestSet().Len() {
		t.Fatalf("client set has %d pairs, coordinator %d", client.TestSet().Len(), master.TestSet().Len())
	}
	for i := range imported {
		if imported[i].Status != results[i].Status {
			t.Errorf("fault %s: status changed on import", imported[i].Fault.Key())
		}
		if results[i].PatternIndex >= 0 && imported[i].PatternIndex != results[i].PatternIndex {
			t.Errorf("fault %s: index %d imported, %d original (empty client set: rebase must be identity)",
				imported[i].Fault.Key(), imported[i].PatternIndex, results[i].PatternIndex)
		}
	}
	if client.Stats().Tested != master.Stats().Tested {
		t.Errorf("imported stats tested=%d, want %d", client.Stats().Tested, master.Stats().Tested)
	}
	// A second import on a non-empty set must rebase the indices.
	again := client.ImportRemoteRun(results, master.TestSet(), master.Stats())
	base := master.TestSet().Len()
	for i := range again {
		if results[i].PatternIndex >= 0 && again[i].PatternIndex != results[i].PatternIndex+base {
			t.Errorf("fault %s: second import index %d, want %d",
				again[i].Fault.Key(), again[i].PatternIndex, results[i].PatternIndex+base)
		}
	}
}
