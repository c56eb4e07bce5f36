// Package retry is the repo's one idiom for surviving transient faults on
// the service's wire edges: context-aware exponential backoff with
// decorrelated jitter, a transient/terminal error classification shared by
// every caller, and a per-operation attempt budget so a hopeless endpoint
// fails after a bounded number of tries instead of retrying forever.
//
// Two shapes cover every call site:
//
//   - retry.Do wraps one operation: it retries transient failures under the
//     policy's budget and stops immediately on terminal ones.
//   - Policy.Backoff hands loops that own their own retry structure (the
//     worker lease loop, the client's reconnecting long-polls) a jittered
//     delay sequence without the Do wrapper.
//
// Classification is deliberately conservative about what is terminal:
// connection refused/reset, timeouts (including a per-attempt deadline
// firing), severed response bodies and HTTP 5xx (plus 408/425/429) are
// transient; other 4xx responses, context cancellation and errors marked
// Permanent are terminal.
// Do and the loop helpers check the caller's own context separately, so a
// dead parent context always stops the retrying regardless of class.  Errors may carry a server-provided retry hint
// (HTTP Retry-After) via the RetryAfterHint interface; Do and Backoff honor
// it as a lower bound on the next delay.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"
)

// Class is the retry verdict on an error.
type Class int

const (
	// Terminal errors must not be retried: the operation failed for a
	// reason a retry cannot fix (bad request, unknown job, canceled ctx).
	Terminal Class = iota
	// Transient errors are worth retrying with backoff.
	Transient
)

// HTTPStatus lets wire errors expose their status code without this package
// importing the service types (service imports retry, not the reverse).
type HTTPStatus interface{ HTTPStatus() int }

// RetryAfterHint lets an error carry a server-provided delay hint (HTTP
// Retry-After); Do and Backoff use it as a lower bound on the next delay.
type RetryAfterHint interface{ RetryAfterHint() time.Duration }

// Classify is the default transient/terminal classification.  nil,
// deliberate cancellation and errors marked Permanent are Terminal;
// wire-shaped failures (refused/reset connections, timeouts — a deadline
// firing on one attempt is the classic transient fault; the caller's own
// context is checked separately by the retry loops — truncated bodies,
// retryable HTTP statuses) are Transient; HTTP client errors are Terminal.
// Unknown errors default to Transient: on a wire edge an unclassified
// failure is far more often a flaky hop than a permanent condition, and the
// budget bounds the damage.
func Classify(err error) Class {
	if err == nil {
		return Terminal
	}
	if errors.Is(err, context.Canceled) {
		return Terminal
	}
	var p permanent
	if errors.As(err, &p) {
		return Terminal
	}
	var hs HTTPStatus
	if errors.As(err, &hs) {
		return ClassifyHTTP(hs.HTTPStatus())
	}
	return Transient
}

// Permanent marks err as a failure no retry can fix, for a reason that is
// not an HTTP status: Classify returns Terminal for it and for every error
// that wraps it, and errors.Is and errors.As still see err.
func Permanent(err error) error { return permanent{err} }

type permanent struct{ error }

func (p permanent) Unwrap() error { return p.error }

// ClassifyHTTP classifies a bare HTTP status code: 5xx and the retryable
// 4xx trio (408 request timeout, 425 too early, 429 rate limited) are
// Transient, everything else a client must fix before retrying.
func ClassifyHTTP(status int) Class {
	switch {
	case status >= 500:
		return Transient
	case status == 408 || status == 425 || status == 429:
		return Transient
	default:
		return Terminal
	}
}

// ClassifyStrict only deems an error transient when the request provably
// never reached the server (refused or unrouteable connection), so retrying
// cannot duplicate a non-idempotent operation.  Everything indeterminate —
// resets, timeouts, truncated responses, where the server may have already
// acted — is Terminal.  Job submission uses this.
func ClassifyStrict(err error) Class {
	if err == nil {
		return Terminal
	}
	if errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETUNREACH) {
		return Transient
	}
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return Transient
	}
	return Terminal
}

// retryAfter extracts the strongest server delay hint from the error chain.
func retryAfter(err error) (time.Duration, bool) {
	var h RetryAfterHint
	if errors.As(err, &h) {
		if d := h.RetryAfterHint(); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// Policy tunes one operation's retry behavior.  The zero value is usable:
// it means 4 attempts, 100ms initial delay, 5s cap, default classification.
type Policy struct {
	// Initial is the first backoff delay.  Default 100ms.
	Initial time.Duration
	// Max caps every delay.  Default 5s.
	Max time.Duration
	// Attempts is the total attempt budget, first try included.  0 means
	// the default of 4; negative means unlimited (the context bounds the
	// loop instead — reconnecting long-polls use this).
	Attempts int
	// Classify overrides the transient/terminal verdict.  Default Classify.
	Classify func(error) Class
	// Seed, when nonzero, makes the jitter sequence deterministic — chaos
	// tests pin it so a failure schedule replays exactly.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.Initial <= 0 {
		p.Initial = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	if p.Max < p.Initial {
		p.Max = p.Initial
	}
	if p.Attempts == 0 {
		p.Attempts = 4
	}
	if p.Classify == nil {
		p.Classify = Classify
	}
	return p
}

// Backoff is the stateful delay sequence of one operation: decorrelated
// jitter (each delay drawn uniformly from [Initial, 3×previous], capped at
// Max), so a fleet of clients that failed together does not retry in
// lockstep.  Not safe for concurrent use; each goroutine owns its own.
type Backoff struct {
	p     Policy
	mu    sync.Mutex
	rng   *rand.Rand
	prev  time.Duration
	tries int
}

// Backoff builds a fresh delay sequence under the policy.
func (p Policy) Backoff() *Backoff {
	p = p.withDefaults()
	seed := p.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	return &Backoff{p: p, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay and whether the budget allows another attempt.
// The first call (before any failure) already consumes an attempt, so a
// Policy with Attempts=1 never sleeps: the single attempt was spent.
func (b *Backoff) Next() (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tries++
	if b.p.Attempts > 0 && b.tries >= b.p.Attempts {
		return 0, false
	}
	lo := b.p.Initial
	hi := 3 * b.prev
	if hi < lo {
		hi = lo
	}
	if hi > b.p.Max {
		hi = b.p.Max
	}
	d := lo
	if hi > lo {
		d = lo + time.Duration(b.rng.Int63n(int64(hi-lo)+1))
	}
	b.prev = d
	return d, true
}

// Sleep waits out the next delay, honoring any Retry-After hint on err as a
// lower bound.  It returns false when the budget is exhausted or the context
// ended — the caller should stop retrying and surface its last error.
func (b *Backoff) Sleep(ctx context.Context, err error) bool {
	d, ok := b.Next()
	if !ok {
		return false
	}
	if hint, ok := retryAfter(err); ok && hint > d {
		d = hint
		if max := b.p.withDefaults().Max; hint > max && max > 0 {
			d = max
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Reset clears the sequence after a success, so the next failure backs off
// from Initial again.  The attempt budget restarts too.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.prev = 0
	b.tries = 0
	b.mu.Unlock()
}

// Do runs op, retrying transient failures under the policy until it
// succeeds, turns terminal, or the budget or context runs out.  The last
// error is returned unwrapped, so errors.Is/As verdicts on the underlying
// failure keep working at the call site.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	b := p.Backoff()
	for {
		err := op(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || p.Classify(err) == Terminal {
			return err
		}
		if !b.Sleep(ctx, err) {
			return err
		}
	}
}
