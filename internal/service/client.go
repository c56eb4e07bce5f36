package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/retry"
)

// ErrUnknownCircuit reports a circuit hash the coordinator does not hold:
// a hash-only submission, whose caller retries with the bench text, or a
// CircuitBench fetch.
var ErrUnknownCircuit = errors.New("service: circuit not cached on coordinator")

// maxReplyBody bounds every reply the client reads.  The largest reply is a
// job's results, which grow with its faults and with its circuit's inputs:
// a tested fault carries its pattern in its result and again in the test
// set text.  A 1,024-fault nonrobust job on the s38584 stand-in, the
// largest built-in circuit (1,464 inputs), replies with 4.9 MB, about
// 4.8 KB a fault, so the bound holds the results of some 220,000 faults of
// that circuit.
const maxReplyBody = 1 << 30

// ErrReplyTooLarge reports a reply longer than maxReplyBody, whether its
// Content-Length declares it or its chunks run past the bound.  The same
// request would get the same reply, so no retry policy retries it.
var ErrReplyTooLarge = retry.Permanent(fmt.Errorf("service: reply exceeds %d bytes", maxReplyBody))

// Per-endpoint attempt deadlines.  Every request context is additionally
// bounded by the caller's own deadline (context.WithTimeout keeps the
// earlier of the two), so these only cap how long one attempt may hang on
// a dead wire — the old single 60s http.Client.Timeout also capped the
// long-polls regardless of the caller's intent, which is exactly the bug
// these replace.
const (
	// opTimeout bounds one attempt of a short control-plane call
	// (cancel, spec, posting results).
	opTimeout = 15 * time.Second
	// submitTimeout bounds one submit attempt, which may carry the full
	// bench text and pay for parse + levelization on the coordinator.
	submitTimeout = 60 * time.Second
	// fetchTimeout bounds one bulk download attempt (results, bench text).
	fetchTimeout = 60 * time.Second
	// longPollMargin rides on top of a long-poll's wait window (status,
	// lease, events): the attempt deadline is the requested wait plus this
	// slack, so a long poll is never cut short by the client while the
	// server still holds it.  With no wait it is the opTimeout of a plain
	// call.
	longPollMargin = 15 * time.Second
	// longPollWait is the window Wait, Follow and the worker's lease loop
	// ask the coordinator to hold a request open, inside its 30 s cap.
	longPollWait = 25 * time.Second
)

// APIError is a non-2xx coordinator response.  It exposes its status code
// (and any Retry-After hint) through the interfaces internal/retry
// classifies on: 5xx and 429 retry, other 4xx fail fast.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the parsed Retry-After header, 0 when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: %s (%d %s)", e.Message, e.Status, e.Code)
}

// HTTPStatus implements retry.HTTPStatus.
func (e *APIError) HTTPStatus() int { return e.Status }

// RetryAfterHint implements retry.RetryAfterHint.
func (e *APIError) RetryAfterHint() time.Duration { return e.RetryAfter }

// Client talks to a coordinator.  It is used both by end clients (submit,
// wait, fetch results) and by workers (lease, post results); all methods are
// safe for concurrent use.
//
// Every call runs under a per-endpoint retry policy: idempotent reads and
// the at-least-once-safe writes (lease — a lost lease simply expires;
// result posts — the coordinator's first-completion-wins dedup absorbs the
// duplicate) retry any transient failure, while job submission only retries
// when the request provably never reached the coordinator, so a blip cannot
// double-submit a job.
type Client struct {
	base string
	hc   *http.Client

	// wide retries transient faults broadly; strict only provably-unsent
	// requests.  Tests tighten these through WithRetryPolicy.
	wide   retry.Policy
	strict retry.Policy
}

// ClientOption tunes a Client at construction.
type ClientOption func(*Client)

// WithTransport replaces the HTTP transport — the chaos injector's
// fault-wrapped transport enters here.
func WithTransport(rt http.RoundTripper) ClientOption {
	return func(cl *Client) { cl.hc.Transport = rt }
}

// WithRetryPolicy overrides the transient-retry policy of every endpoint
// (submission keeps its strict not-sent-only classification but adopts the
// delays and budget).  Tests use it to pin seeds and shrink delays.
func WithRetryPolicy(p retry.Policy) ClientOption {
	return func(cl *Client) {
		cl.wide = p
		cl.strict = p
		cl.strict.Classify = retry.ClassifyStrict
	}
}

// NewClient builds a client for the coordinator at base (e.g.
// "http://127.0.0.1:9090").
func NewClient(base string, opts ...ClientOption) *Client {
	cl := &Client{
		base: base,
		// No global http.Client.Timeout: attempts are bounded per endpoint,
		// long-polls by their own window (see the timeout constants).
		hc:     &http.Client{},
		wide:   retry.Policy{Initial: 100 * time.Millisecond, Max: 2 * time.Second, Attempts: 4},
		strict: retry.Policy{Initial: 100 * time.Millisecond, Max: 2 * time.Second, Attempts: 4, Classify: retry.ClassifyStrict},
	}
	for _, opt := range opts {
		opt(cl)
	}
	return cl
}

// call performs one JSON exchange under the retry policy, bounding each
// attempt by timeout (0 = the caller's context alone).  Returns the HTTP
// status of the last attempt; non-2xx responses come back as *APIError.
func (cl *Client) call(ctx context.Context, p retry.Policy, timeout time.Duration, method, path string, in, out any) (int, error) {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = b
	}
	code, raw, err := cl.fetch(ctx, p, timeout, method, path, body)
	if err != nil || out == nil || code == http.StatusNoContent {
		return code, err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return code, fmt.Errorf("service: decoding %s %s response: %w", method, path, err)
	}
	return code, nil
}

// fetch runs doOnce under the retry policy, bounding each attempt by
// timeout (0 = the caller's context alone), and returns the status and the
// body of the last attempt's reply.
func (cl *Client) fetch(ctx context.Context, p retry.Policy, timeout time.Duration, method, path string, body []byte) (int, []byte, error) {
	var (
		code int
		raw  []byte
	)
	err := retry.Do(ctx, p, func(ctx context.Context) error {
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		var err error
		code, raw, err = cl.doOnce(ctx, method, path, body)
		return err
	})
	return code, raw, err
}

// doOnce is one attempt: the full response body is read before anything
// decodes it, so a severed body surfaces as a transient read error rather
// than a partially filled value, and a body over maxReplyBody as
// ErrReplyTooLarge.
func (cl *Client) doOnce(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.base+API+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := readReply(resp, maxReplyBody)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("service: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		apiErr := &APIError{
			Status:     resp.StatusCode,
			Code:       "error",
			Message:    resp.Status,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		var body ErrorResponse
		if json.Unmarshal(raw, &body) == nil && body.Code != "" {
			apiErr.Code, apiErr.Message = body.Code, body.Error
		}
		if apiErr.Code == "unknown-circuit" {
			// Keep the APIError in the chain so retry classification still
			// sees the status while callers match ErrUnknownCircuit.
			return resp.StatusCode, nil, fmt.Errorf("%w: %w", ErrUnknownCircuit, apiErr)
		}
		return resp.StatusCode, nil, apiErr
	}
	return resp.StatusCode, raw, nil
}

// readReply reads a reply body of at most limit bytes.  A reply of declared
// length is read by readSized, and one declared over the limit is refused
// unread.  A chunked reply is read through the limit and one byte more:
// reading that byte means the reply runs past the limit.
func readReply(resp *http.Response, limit int) ([]byte, error) {
	if n := resp.ContentLength; n > int64(limit) {
		return nil, ErrReplyTooLarge
	} else if n >= 0 {
		return readSized(resp.Body, n)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
	if err == nil && len(b) > limit {
		return nil, ErrReplyTooLarge
	}
	return b, err
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// Submit creates a job from an explicit request.  A hash-only request whose
// circuit the coordinator does not hold fails with ErrUnknownCircuit.
// Submission is not idempotent, so only provably-unsent requests retry.
func (cl *Client) Submit(ctx context.Context, req SubmitRequest) (SubmitResponse, error) {
	var resp SubmitResponse
	_, err := cl.call(ctx, cl.strict, submitTimeout, http.MethodPost, "/jobs", req, &resp)
	return resp, err
}

// SubmitBench submits a job hash-first: the cheap hash-only request rides
// the compiled-circuit cache, and only on ErrUnknownCircuit is the bench
// text uploaded.
func (cl *Client) SubmitBench(ctx context.Context, name, bench string, opts JobOptions, faults []WireFault) (SubmitResponse, error) {
	req := SubmitRequest{Name: name, CircuitHash: HashBench(bench), Options: opts, Faults: faults}
	resp, err := cl.Submit(ctx, req)
	if errors.Is(err, ErrUnknownCircuit) {
		req.CircuitBench = bench
		resp, err = cl.Submit(ctx, req)
	}
	return resp, err
}

// Status fetches a job's lifecycle state and dispatch counters.
func (cl *Client) Status(ctx context.Context, jobID string) (JobStatus, error) {
	return cl.statusWait(ctx, jobID, "", 0)
}

// statusWait fetches a job's status once it is no longer in state seen,
// letting the coordinator hold the request for up to wait.
func (cl *Client) statusWait(ctx context.Context, jobID, seen string, wait time.Duration) (JobStatus, error) {
	var st JobStatus
	path := "/jobs/" + jobID
	if wait > 0 {
		path += fmt.Sprintf("?state=%s&wait_ms=%d", url.QueryEscape(seen), wait.Milliseconds())
	}
	_, err := cl.call(ctx, cl.wide, wait+longPollMargin, http.MethodGet, path, nil, &st)
	return st, err
}

// Events long-polls the job's settle-event stream from the given cursor.
// The attempt deadline tracks the requested wait window, so the caller's
// context — not a fixed client timeout — decides how long to keep polling.
func (cl *Client) Events(ctx context.Context, jobID string, from int, wait time.Duration) (EventsResponse, error) {
	var resp EventsResponse
	path := fmt.Sprintf("/jobs/%s/events?from=%d&wait_ms=%d", jobID, from, wait.Milliseconds())
	_, err := cl.call(ctx, cl.wide, wait+longPollMargin, http.MethodGet, path, nil, &resp)
	return resp, err
}

// Follow yields the job's settle events in order, from the first, one page
// of them at a time, until the feed reports done; breaking out of the loop
// stops it.  A transient failure of the feed — a coordinator restart, a
// dropped connection, a severed response — does not end it: Follow backs
// off and resumes after the last page it yielded, so no event arrives twice
// and none is lost.  A page that leaves the cursor where it was (a long poll
// that timed out, or the done page of a feed read to its end) holds no event
// and is skipped; every other page is yielded as it came, so the caller's
// DecodePage refuses one whose columns do not line up.  A terminal error
// (the job is unknown) or the end of ctx is yielded once, with an empty
// page, and ends the stream.
func (cl *Client) Follow(ctx context.Context, jobID string) iter.Seq2[ResultColumns, error] {
	return func(yield func(ResultColumns, error) bool) {
		bo := cl.reconnect()
		from := 0
		for {
			ev, err := cl.Events(ctx, jobID, from, longPollWait)
			if err != nil {
				if ctx.Err() == nil && retry.Classify(err) == retry.Transient && bo.Sleep(ctx, err) {
					continue // same cursor: resume exactly where the feed broke
				}
				if ctx.Err() != nil {
					err = ctx.Err()
				}
				yield(ResultColumns{}, err)
				return
			}
			bo.Reset()
			if ev.Next != from && !yield(ev.Events, nil) {
				return
			}
			from = ev.Next
			if ev.Done {
				return
			}
		}
	}
}

// reconnect is the backoff of the loops that outlive any one call (Wait,
// Follow): the wide policy without an attempt budget, so the context, not
// a count, ends them.
func (cl *Client) reconnect() *retry.Backoff {
	p := cl.wide
	p.Attempts = -1
	return p.Backoff()
}

// Results fetches a finished job's full outcome.  The coordinator keeps a
// finished job's results in memory until it restarts, so a re-fetch after a
// connection blip returns the identical payload; its ledger keeps only the
// job's terminal state, and a restarted coordinator answers 404.
func (cl *Client) Results(ctx context.Context, jobID string) (ResultsResponse, error) {
	var resp ResultsResponse
	_, err := cl.call(ctx, cl.wide, fetchTimeout, http.MethodGet, "/jobs/"+jobID+"/results", nil, &resp)
	return resp, err
}

// Cancel cancels a job and returns its status.  Cancellation is idempotent
// on the coordinator, so transient failures retry.
func (cl *Client) Cancel(ctx context.Context, jobID string) (JobStatus, error) {
	var st JobStatus
	_, err := cl.call(ctx, cl.wide, opTimeout, http.MethodDelete, "/jobs/"+jobID, nil, &st)
	return st, err
}

// Wait blocks until the job reaches a terminal state.  Each request parks
// on the coordinator until the job's state changes, so the end of the job
// is noticed at once.  Transient failures — a restarting coordinator, a
// severed connection — back off with jitter and resume; only a terminal
// error (the job is unknown, the caller's context ended) surfaces.  The
// context owns the overall deadline.
func (cl *Client) Wait(ctx context.Context, jobID string) (JobStatus, error) {
	bo := cl.reconnect()
	var st JobStatus
	for {
		next, err := cl.statusWait(ctx, jobID, st.State, longPollWait)
		if err != nil {
			if ctx.Err() != nil || retry.Classify(err) == retry.Terminal || !bo.Sleep(ctx, err) {
				return st, err
			}
			continue
		}
		bo.Reset()
		st = next
		if terminal(st.State) {
			return st, nil
		}
	}
}

// Spec fetches what a worker needs to build a job-local generator.
func (cl *Client) Spec(ctx context.Context, jobID string) (JobSpec, error) {
	var spec JobSpec
	_, err := cl.call(ctx, cl.wide, opTimeout, http.MethodGet, "/jobs/"+jobID+"/spec", nil, &spec)
	return spec, err
}

// CircuitBench fetches the .bench text of a cached circuit.  A circuit the
// coordinator does not hold fails with ErrUnknownCircuit.
func (cl *Client) CircuitBench(ctx context.Context, hash string) (string, error) {
	_, raw, err := cl.fetch(ctx, cl.wide, fetchTimeout, http.MethodGet, "/circuits/"+hash, nil)
	return string(raw), err
}

// Lease asks the coordinator for up to maxUnits work units, letting it hold
// the request for up to wait until one is leasable (0 answers at once).  ok
// is false when nothing was leasable within the wait (HTTP 204).  Retrying
// a lost lease is safe: if the grant never arrived, its TTL expires and the
// units requeue, and the exchange patterns it carried only forgo drops.
func (cl *Client) Lease(ctx context.Context, worker string, maxUnits int, wait time.Duration) (LeaseResponse, bool, error) {
	var resp LeaseResponse
	req := LeaseRequest{Worker: worker, MaxUnits: maxUnits, WaitMS: int(wait.Milliseconds())}
	code, err := cl.call(ctx, cl.wide, wait+longPollMargin, http.MethodPost, "/lease", req, &resp)
	if err != nil {
		return resp, false, err
	}
	return resp, code == http.StatusOK, nil
}

// PostUnitResults reports a batch of processed units.  Retrying a post whose
// response was lost is safe: the coordinator's first-completion-wins dedup
// flags the duplicate and applies nothing twice.
func (cl *Client) PostUnitResults(ctx context.Context, jobID string, post PostResults) (PostResultsResponse, error) {
	var resp PostResultsResponse
	_, err := cl.call(ctx, cl.wide, opTimeout, http.MethodPost, "/jobs/"+jobID+"/results", post, &resp)
	return resp, err
}
