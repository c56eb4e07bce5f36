package atpg

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// cSuite returns the circuits of the builtin c-suite used by the worker
// equivalence tests: small enough to enumerate or densely sample, large
// enough that every shard gets real work.
func cSuite(t *testing.T) map[string]*Circuit {
	t.Helper()
	out := make(map[string]*Circuit)
	for _, name := range []string{"c17", "c432", "c499"} {
		c, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	return out
}

func suiteFaults(c *Circuit) []Fault {
	if c.NumInputs() <= 8 {
		return AllFaults(c, 0)
	}
	return SampleFaults(c, 192, 1995)
}

// statusClass collapses Tested and DetectedBySim into one "covered" class:
// with the cross-worker pattern exchange active, which of the two a covered
// fault gets depends on the shard interleaving.  Redundant and Aborted are
// classes of their own.
func statusClass(s Status) string {
	if s.Detected() {
		return "covered"
	}
	return s.String()
}

// TestWorkersMatchSequential is the acceptance test of the sharded engine:
// on the builtin c-suite, WithWorkers(4) must classify every fault the same
// as WithWorkers(1), and the Redundant/Aborted/covered counts must be
// identical.  Run under -race this also shakes out data races between the
// workers and the pattern exchange.
func TestWorkersMatchSequential(t *testing.T) {
	for name, c := range cSuite(t) {
		faults := suiteFaults(c)
		for _, mode := range []Mode{Robust, Nonrobust} {
			seq, err := New(c, WithMode(mode), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			want, err := seq.Run(context.Background(), faults)
			if err != nil {
				t.Fatal(err)
			}
			par, err := New(c, WithMode(mode), WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			if par.Workers() != 4 {
				t.Fatalf("Workers() = %d, want 4", par.Workers())
			}
			got, err := par.Run(context.Background(), faults)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d parallel results, want %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i].Fault.Key() != want[i].Fault.Key() {
					t.Fatalf("%s: result %d is for %s, want %s (input order broken)",
						name, i, got[i].Fault.Key(), want[i].Fault.Key())
				}
				if statusClass(got[i].Status) != statusClass(want[i].Status) {
					t.Errorf("%s %v: fault %s is %v with 4 workers, %v with 1",
						name, mode, c.Describe(got[i].Fault), got[i].Status, want[i].Status)
				}
			}
			cs, cp := seq.Coverage(), par.Coverage()
			if cs.Detected != cp.Detected || cs.Redundant != cp.Redundant || cs.Aborted != cp.Aborted {
				t.Errorf("%s %v: parallel coverage %+v, sequential %+v", name, mode, cp, cs)
			}
		}
	}
}

// TestWorkersExactStatusesWithoutSim tightens the equivalence: with the
// interleaved simulation disabled every fault's search is independent of
// the others, so the per-fault statuses (not just the coverage classes)
// must be identical for any worker count.
func TestWorkersExactStatusesWithoutSim(t *testing.T) {
	for name, c := range cSuite(t) {
		faults := suiteFaults(c)
		base, err := New(c, WithInterleavedSim(0), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Run(context.Background(), faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			e, err := New(c, WithInterleavedSim(0), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Run(context.Background(), faults)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i].Status != want[i].Status {
					t.Errorf("%s workers=%d: fault %s is %v, want %v",
						name, workers, c.Describe(got[i].Fault), got[i].Status, want[i].Status)
				}
			}
			if got, want := e.Tests().Len(), base.Tests().Len(); got != want {
				t.Errorf("%s workers=%d: merged test set has %d pairs, sequential %d", name, workers, got, want)
			}
		}
	}
}

// TestWorkersOptionValidation pins the WithWorkers contract: negative counts
// fail construction, 0 resolves to GOMAXPROCS, and the default is 1.
func TestWorkersOptionValidation(t *testing.T) {
	c, err := Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(c, WithWorkers(-1)); err == nil {
		t.Error("New(WithWorkers(-1)): expected an error")
	}
	e, err := New(c, WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); e.Workers() != want {
		t.Errorf("WithWorkers(0): Workers() = %d, want GOMAXPROCS = %d", e.Workers(), want)
	}
	if e, err := New(c); err != nil || e.Workers() != 1 {
		t.Errorf("default engine: Workers() = %d (err %v), want 1", e.Workers(), err)
	}
	// The fleet sets a remote run's parallelism, not the engine.
	if e, err := New(c, WithRemote("http://127.0.0.1:1"), WithWorkers(4)); err != nil || e.Workers() != 0 {
		t.Errorf("remote engine with WithWorkers(4): Workers() = %d (err %v), want 0", e.Workers(), err)
	}
}

// TestCancellationMidParallelRun cancels a 4-worker run after a few faults
// settle: Run must return ErrCanceled, every fault must come back
// classified (no Pending leaks through the merge), and the cut-short faults
// must be Aborted with the cancellation cause recorded.
func TestCancellationMidParallelRun(t *testing.T) {
	p, ok := ProfileByName("s1423")
	if !ok {
		t.Fatal("missing s1423 profile")
	}
	c, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	faults := SampleFaults(c, 512, 7)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	settled := 0
	e, err := New(c, WithMode(Nonrobust), WithWorkers(4), WithProgress(func(r Result) {
		// Serialized by the engine even with 4 workers, so no locking here.
		if r.Err == nil {
			settled++
		}
		if settled >= 8 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.Run(ctx, faults)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled parallel run: got error %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if len(results) != len(faults) {
		t.Fatalf("got %d results for %d faults", len(results), len(faults))
	}
	finished, canceled := 0, 0
	for _, r := range results {
		switch {
		case r.Status == Pending:
			t.Errorf("fault %s left Pending after a canceled parallel run", r.Fault.Key())
		case r.Err != nil:
			canceled++
			if r.Status != Aborted {
				t.Errorf("canceled fault has status %v, want Aborted", r.Status)
			}
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("canceled fault cause = %v, want context.Canceled", r.Err)
			}
		default:
			finished++
		}
	}
	if finished == 0 {
		t.Error("no fault settled before the cancellation")
	}
	if canceled == 0 {
		t.Error("no fault was cut short: the parallel run was not canceled mid-generation")
	}
	t.Logf("settled=%d canceled=%d", finished, canceled)
}

// TestParallelStream checks the thread-safe streaming path: a 4-worker
// stream must yield exactly one settled result per fault on the consumer's
// goroutine, and breaking out early must cancel the remaining shards before
// the stream returns.
func TestParallelStream(t *testing.T) {
	c, err := Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := SampleFaults(c, 128, 3)
	e, err := New(c, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	// SampleFaults draws with replacement, so compare per-fault yield counts
	// against the input multiplicity rather than expecting distinct keys.
	want := make(map[string]int)
	for _, f := range faults {
		want[f.Key()]++
	}
	seen := make(map[string]int)
	total := 0
	for r := range e.Stream(context.Background(), faults) {
		seen[r.Fault.Key()]++
		total++
	}
	if total != len(faults) {
		t.Fatalf("stream yielded %d results, want %d", total, len(faults))
	}
	for k, n := range seen {
		if n != want[k] {
			t.Errorf("fault %s yielded %d times, want %d", k, n, want[k])
		}
	}

	// Early break: the break must cut the run short, and by the time the
	// stream returns the engine must be idle and its stats final.
	p, ok := ProfileByName("s1423")
	if !ok {
		t.Fatal("missing s1423 profile")
	}
	big, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	be, err := New(big, WithMode(Nonrobust), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	bigFaults := SampleFaults(big, 512, 3)
	yielded := 0
	for range be.Stream(context.Background(), bigFaults) {
		yielded++
		if yielded == 2 {
			break
		}
	}
	if yielded != 2 {
		t.Fatalf("consumed %d results, want 2", yielded)
	}
	st := be.Stats()
	if st.Faults != len(bigFaults) {
		t.Fatalf("engine targeted %d faults, want %d", st.Faults, len(bigFaults))
	}
	// How many faults the workers manage to settle before the cancellation
	// propagates depends on scheduling; what must hold is that the break cut
	// the run short at all and left nothing pending.
	if st.Aborted == 0 {
		t.Error("no fault was cut short after the early break")
	}
	if got := st.Tested + st.Redundant + st.Aborted + st.DetectedBySim; got != st.Faults {
		t.Errorf("statuses sum to %d, want %d", got, st.Faults)
	}
}
