package atpg

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/pattern"
)

func TestNewValidatesOptions(t *testing.T) {
	c, err := Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{-1, 0, 129, 256, 1024} {
		_, err := New(c, WithWordWidth(width))
		if !errors.Is(err, ErrBadWidth) {
			t.Errorf("New(WithWordWidth(%d)): got %v, want ErrBadWidth", width, err)
		} else if !strings.Contains(err.Error(), "1..128") {
			t.Errorf("New(WithWordWidth(%d)): %v does not name the range 1..128", width, err)
		}
	}
	for _, width := range []int{1, 64, 128} {
		if _, err := New(c, WithWordWidth(width)); err != nil {
			t.Errorf("New(WithWordWidth(%d)): unexpected error %v", width, err)
		}
	}
	if _, err := New(nil); !errors.Is(err, ErrNilCircuit) {
		t.Errorf("New(nil): got %v, want ErrNilCircuit", err)
	}
	if _, err := New(c, WithBacktrackLimit(0)); err == nil {
		t.Error("New(WithBacktrackLimit(0)): expected an error")
	}
	if _, err := New(c, WithInterleavedSim(-1)); err == nil {
		t.Error("New(WithInterleavedSim(-1)): expected an error")
	}
}

func TestRunNoFaults(t *testing.T) {
	c, err := Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), nil); !errors.Is(err, ErrNoFaults) {
		t.Errorf("Run(nil faults): got %v, want ErrNoFaults", err)
	}
}

func TestParseErrors(t *testing.T) {
	_, err := ParseBench("bad.bench", strings.NewReader("INPUT(a)\nG1 = AND(\n"))
	if err == nil {
		t.Fatal("expected a parse error")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *ParseError", err, err)
	}
	if pe.File != "bad.bench" || pe.Line != 2 {
		t.Errorf("ParseError location = %s:%d, want bad.bench:2", pe.File, pe.Line)
	}
	if !strings.Contains(err.Error(), "bad.bench:2:") {
		t.Errorf("error message %q does not lead with file:line", err.Error())
	}
}

// TestCancellationMidRun is the acceptance test of the context redesign: a
// run on a large synthetic circuit is canceled after the first few faults
// settle, Run must return early with ErrCanceled (wrapping the context
// cause), and every unsettled fault must come back Aborted with the cause
// recorded.
func TestCancellationMidRun(t *testing.T) {
	p, ok := ProfileByName("s1423")
	if !ok {
		t.Fatal("missing s1423 profile")
	}
	c, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	faults := SampleFaults(c, 512, 7)
	if len(faults) != 512 {
		t.Fatalf("sampled %d faults, want 512", len(faults))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	settledBeforeCancel := 0
	e, err := New(c, WithMode(Nonrobust), WithProgress(func(r Result) {
		if r.Err == nil {
			settledBeforeCancel++
		}
		if settledBeforeCancel >= 3 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}

	results, err := e.Run(ctx, faults)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run on canceled context: got error %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap the context cause context.Canceled", err)
	}
	if len(results) != len(faults) {
		t.Fatalf("got %d results for %d faults", len(results), len(faults))
	}
	settled, canceled := 0, 0
	for _, r := range results {
		switch {
		case r.Err != nil:
			canceled++
			if r.Status != Aborted {
				t.Errorf("canceled fault has status %v, want Aborted", r.Status)
			}
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("canceled fault cause = %v, want context.Canceled", r.Err)
			}
		case r.Status != Pending:
			settled++
		}
	}
	if settled == 0 {
		t.Error("no fault settled before the cancellation")
	}
	if canceled == 0 {
		t.Error("no fault was cut short: the run was not canceled mid-generation")
	}
	t.Logf("settled=%d canceled=%d", settled, canceled)
}

func TestDeadlineExpiry(t *testing.T) {
	p, ok := ProfileByName("s1423")
	if !ok {
		t.Fatal("missing s1423 profile")
	}
	c, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err = e.Run(ctx, SampleFaults(c, 64, 1))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run past deadline: got %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
}

// allPairs enumerates every two-vector test of a circuit with n primary
// inputs (4^n pairs), the brute-force detectability oracle also used by
// internal/core's oracle test.
func allPairs(c *Circuit) []TestPair {
	n := c.NumInputs()
	total := 1 << uint(2*n)
	pairs := make([]TestPair, 0, total)
	for code := 0; code < total; code++ {
		p := pattern.NewPair(n)
		for i := 0; i < n; i++ {
			if code>>(uint(i))&1 == 1 {
				p.V1[i] = logic.One3
			} else {
				p.V1[i] = logic.Zero3
			}
			if code>>(uint(n+i))&1 == 1 {
				p.V2[i] = logic.One3
			} else {
				p.V2[i] = logic.Zero3
			}
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// TestC17RobustMatchesOracle runs the façade end to end on c17 in robust
// mode and checks every classification against the brute-force oracle,
// mirroring internal/core/oracle_test.go: a fault is reported covered iff
// some pair of the full pair universe robustly detects it, and redundant
// faults have no detecting pair at all.
func TestC17RobustMatchesOracle(t *testing.T) {
	c, err := Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	faults := AllFaults(c, 0)
	if len(faults) == 0 {
		t.Fatal("no faults enumerated for c17")
	}
	oracle, err := Simulate(c, allPairs(c), faults, true)
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(c, WithMode(Robust))
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.Run(context.Background(), faults)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Status == Aborted {
			t.Errorf("fault %s aborted on c17", c.Describe(r.Fault))
			continue
		}
		detectable := oracle.Detected[i]
		claimed := r.Status.Detected()
		if claimed && !detectable {
			t.Errorf("engine claims a test for %s but no pair detects it", c.Describe(r.Fault))
		}
		if !claimed && detectable {
			t.Errorf("engine calls %s %v but the oracle finds a detecting pair", c.Describe(r.Fault), r.Status)
		}
	}
	if cov := e.Coverage(); cov.Faults != len(faults) || cov.Detected == 0 {
		t.Errorf("odd coverage summary %+v", cov)
	}
}

// TestStreamMatchesRun checks the streaming view: Stream must yield exactly
// one settled result per targeted fault, with the same per-fault
// classifications Run produces on a fresh engine.
func TestStreamMatchesRun(t *testing.T) {
	c, err := Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	faults := AllFaults(c, 0)

	runEngine, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	results, err := runEngine.Run(context.Background(), faults)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]Status, len(results))
	for _, r := range results {
		want[r.Fault.Key()] = r.Status
	}

	streamEngine, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for r := range streamEngine.Stream(context.Background(), faults) {
		seen++
		if got, ok := want[r.Fault.Key()]; !ok || got != r.Status {
			t.Errorf("stream classifies %s as %v, Run said %v", c.Describe(r.Fault), r.Status, got)
		}
	}
	if seen != len(faults) {
		t.Errorf("stream yielded %d results for %d faults", seen, len(faults))
	}
}

// TestStreamEarlyBreak checks that abandoning the stream cancels the rest of
// the generation instead of running it to completion behind the consumer's
// back.
func TestStreamEarlyBreak(t *testing.T) {
	p, ok := ProfileByName("s1423")
	if !ok {
		t.Fatal("missing s1423 profile")
	}
	c, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(c, WithMode(Nonrobust))
	if err != nil {
		t.Fatal(err)
	}
	faults := SampleFaults(c, 512, 3)
	yielded := 0
	for range e.Stream(context.Background(), faults) {
		yielded++
		if yielded == 2 {
			break
		}
	}
	if yielded != 2 {
		t.Fatalf("consumed %d results, want 2", yielded)
	}
	st := e.Stats()
	if st.Faults != len(faults) {
		t.Fatalf("engine targeted %d faults, want %d", st.Faults, len(faults))
	}
	// The vast majority of the faults must have been cut short, not ground
	// through: breaking the loop cancels the underlying run.
	if st.Aborted < len(faults)/2 {
		t.Errorf("only %d of %d faults were cut short after the early break", st.Aborted, len(faults))
	}
}
