package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// httpErr is a minimal wire error carrying a status and a Retry-After hint,
// mirroring what service.APIError exposes through the interfaces.
type httpErr struct {
	status int
	after  time.Duration
}

func (e *httpErr) Error() string                 { return fmt.Sprintf("http %d", e.status) }
func (e *httpErr) HTTPStatus() int               { return e.status }
func (e *httpErr) RetryAfterHint() time.Duration { return e.after }

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Terminal},
		{"canceled", context.Canceled, Terminal},
		{"deadline", context.DeadlineExceeded, Transient},
		{"wrapped-canceled", fmt.Errorf("op: %w", context.Canceled), Terminal},
		{"refused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, Transient},
		{"reset", &net.OpError{Op: "read", Err: syscall.ECONNRESET}, Transient},
		{"eof", io.ErrUnexpectedEOF, Transient},
		{"http-500", &httpErr{status: 500}, Transient},
		{"http-503", &httpErr{status: 503}, Transient},
		{"http-429", &httpErr{status: 429}, Transient},
		{"http-408", &httpErr{status: 408}, Transient},
		{"http-404", &httpErr{status: 404}, Terminal},
		{"http-400", &httpErr{status: 400}, Terminal},
		{"http-409", &httpErr{status: 409}, Terminal},
		{"wrapped-http", fmt.Errorf("call: %w", &httpErr{status: 502}), Transient},
		{"unknown", errors.New("mystery"), Transient},
		{"permanent", Permanent(errors.New("mystery")), Terminal},
		{"wrapped-permanent", fmt.Errorf("call: %w", Permanent(io.ErrUnexpectedEOF)), Terminal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A permanent mark hides nothing from errors.Is.
	if sentinel := errors.New("sentinel"); !errors.Is(fmt.Errorf("call: %w", Permanent(sentinel)), sentinel) {
		t.Error("errors.Is does not see through Permanent")
	}
	// The transient wire shapes document themselves.
	for _, err := range []error{
		&net.OpError{Op: "read", Err: syscall.ECONNRESET},
		syscall.EPIPE,
		io.EOF,
		io.ErrUnexpectedEOF,
	} {
		if !transientNetError(err) {
			t.Errorf("transientNetError(%v) = false", err)
		}
	}
}

func TestClassifyStrict(t *testing.T) {
	if got := ClassifyStrict(&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}); got != Transient {
		t.Fatal("connection refused must be strictly transient (request never sent)")
	}
	for _, err := range []error{
		&net.OpError{Op: "read", Err: syscall.ECONNRESET},
		io.ErrUnexpectedEOF,
		context.DeadlineExceeded,
		&httpErr{status: 503},
		errors.New("mystery"),
	} {
		if got := ClassifyStrict(err); got != Terminal {
			t.Errorf("ClassifyStrict(%v) = %v, want Terminal (indeterminate delivery)", err, got)
		}
	}
}

// TestBackoffBoundsAndDeterminism: every delay sits in [Initial, Max], the
// sequence grows from Initial, and a pinned seed replays it exactly.
func TestBackoffBoundsAndDeterminism(t *testing.T) {
	p := Policy{Initial: 10 * time.Millisecond, Max: 500 * time.Millisecond, Attempts: -1, Seed: 42}
	a, b := p.Backoff(), p.Backoff()
	prev := time.Duration(0)
	for i := 0; i < 32; i++ {
		da, oka := a.Next()
		db, okb := b.Next()
		if !oka || !okb {
			t.Fatalf("attempt %d: unlimited policy refused an attempt", i)
		}
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < p.Initial || da > p.Max {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, da, p.Initial, p.Max)
		}
		// Decorrelated jitter never exceeds 3x the previous delay.
		if prev > 0 && da > 3*prev {
			t.Fatalf("attempt %d: delay %v > 3x previous %v", i, da, prev)
		}
		prev = da
	}
	if a.Last() != prev {
		t.Fatalf("Last() = %v, want %v", a.Last(), prev)
	}
	a.Reset()
	if a.Last() != 0 {
		t.Fatal("Reset did not clear the sequence")
	}
}

func TestBackoffAttemptBudget(t *testing.T) {
	b := Policy{Initial: time.Millisecond, Attempts: 3, Seed: 1}.Backoff()
	for i := 0; i < 2; i++ {
		if _, ok := b.Next(); !ok {
			t.Fatalf("attempt %d refused before the budget of 3", i+1)
		}
	}
	if _, ok := b.Next(); ok {
		t.Fatal("fourth attempt allowed under a budget of 3")
	}
	b.Reset()
	if _, ok := b.Next(); !ok {
		t.Fatal("Reset did not restore the attempt budget")
	}
}

func TestDoRecoversFromTransient(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Initial: time.Millisecond, Attempts: 5, Seed: 7},
		func(context.Context) error {
			calls++
			if calls < 3 {
				return &httpErr{status: 503}
			}
			return nil
		})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want success on call 3", err, calls)
	}
}

func TestDoStopsOnTerminal(t *testing.T) {
	calls := 0
	want := &httpErr{status: 404}
	err := Do(context.Background(), Policy{Initial: time.Millisecond, Attempts: 5},
		func(context.Context) error { calls++; return want })
	if !errors.Is(err, want) || calls != 1 {
		t.Fatalf("Do = %v after %d calls, want the 404 after exactly 1", err, calls)
	}
}

func TestDoExhaustsBudgetAndKeepsLastError(t *testing.T) {
	calls := 0
	last := errors.New("still down")
	err := Do(context.Background(), Policy{Initial: time.Millisecond, Attempts: 3, Seed: 9},
		func(context.Context) error { calls++; return fmt.Errorf("try %d: %w", calls, last) })
	if calls != 3 {
		t.Fatalf("budget of 3 ran %d attempts", calls)
	}
	if !errors.Is(err, last) {
		t.Fatalf("Do = %v, want the final underlying error", err)
	}
}

func TestDoHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, Policy{Initial: time.Hour, Attempts: -1},
		func(context.Context) error {
			calls++
			cancel() // fail once, then the backoff sleep must abort
			return errors.New("down")
		})
	if err == nil || calls != 1 {
		t.Fatalf("Do = %v after %d calls, want 1 call then a canceled sleep", err, calls)
	}
}

func TestSleepHonorsRetryAfterHint(t *testing.T) {
	b := Policy{Initial: time.Millisecond, Max: time.Second, Attempts: -1, Seed: 3}.Backoff()
	start := time.Now()
	if !b.Sleep(context.Background(), &httpErr{status: 429, after: 60 * time.Millisecond}) {
		t.Fatal("Sleep refused under an unlimited budget")
	}
	if got := time.Since(start); got < 55*time.Millisecond {
		t.Fatalf("slept %v, want >= the 60ms Retry-After hint", got)
	}
}

func TestBackoffTimeBudget(t *testing.T) {
	b := Policy{Initial: time.Millisecond, Attempts: -1, Budget: 20 * time.Millisecond, Seed: 5}.Backoff()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d, ok := b.Next(); !ok {
			return // budget tripped, as it must
		} else {
			time.Sleep(d)
		}
	}
	t.Fatal("time budget never exhausted the backoff")
}
