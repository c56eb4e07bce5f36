package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/paths"
	"repro/internal/retry"
)

// quickRetries retries three times with millisecond delays.
var quickRetries = WithRetryPolicy(retry.Policy{Initial: time.Millisecond, Max: time.Millisecond, Attempts: 3})

// TestClientRefusesDeclaredOversizeReply: a reply whose Content-Length is
// over maxReplyBody fails with ErrReplyTooLarge before anything of that size
// is allocated, and the retry policy does not ask again.
func TestClientRefusesDeclaredOversizeReply(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Length", strconv.Itoa(maxReplyBody+1))
		_, _ = io.WriteString(w, "{") // and never the rest
	}))
	defer srv.Close()
	cl := NewClient(srv.URL, quickRetries)
	ctx := context.Background()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, resultsErr := cl.Results(ctx, "j1")
	_, benchErr := cl.CircuitBench(ctx, "h")
	runtime.ReadMemStats(&after)
	for _, err := range []error{resultsErr, benchErr} {
		if !errors.Is(err, ErrReplyTooLarge) {
			t.Errorf("oversize reply: error %v, want ErrReplyTooLarge", err)
		}
	}
	if n := hits.Load(); n != 2 {
		t.Errorf("two calls asked %d times, want 2: ErrReplyTooLarge must not be retried", n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxReplyBody/64 {
		t.Errorf("refusing the replies allocated %d bytes", grew)
	}
}

// TestReadReplyChunkedBound: a chunked reply is read up to the limit and
// refused one byte past it.
func TestReadReplyChunkedBound(t *testing.T) {
	const limit = 64 << 10
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		piece := bytes.Repeat([]byte{' '}, 1000)
		for n > 0 {
			k, err := w.Write(piece[:min(n, len(piece))])
			if err != nil {
				return
			}
			n -= k
			w.(http.Flusher).Flush() // no Content-Length: the reply is chunked
		}
	}))
	defer srv.Close()
	for _, tc := range []struct {
		n       int
		tooLong bool
	}{
		{0, false},
		{limit, false},
		{limit + 1, true},
		{4 * limit, true},
	} {
		resp, err := http.Get(srv.URL + "?n=" + strconv.Itoa(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		if tc.n > 0 && resp.ContentLength != -1 {
			t.Fatalf("%d bytes: the reply declares %d bytes, want a chunked reply", tc.n, resp.ContentLength)
		}
		body, err := readReply(resp, limit)
		resp.Body.Close()
		switch {
		case tc.tooLong && !errors.Is(err, ErrReplyTooLarge):
			t.Errorf("%d chunked bytes over a %d-byte limit: error %v, want ErrReplyTooLarge", tc.n, limit, err)
		case !tc.tooLong && (err != nil || len(body) != tc.n):
			t.Errorf("%d chunked bytes: read %d (err %v)", tc.n, len(body), err)
		}
	}
}

// TestClientRetriesShortReply: a reply that declares more bytes than it
// sends is a severed body, a transient read error the policy retries.  A
// reply that declares maxReplyBody and sends a few bytes sets aside no more
// than maxPresize an attempt.
func TestClientRetriesShortReply(t *testing.T) {
	for _, declared := range []int{100, maxReplyBody} {
		var hits atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Content-Length", strconv.Itoa(declared))
			_, _ = io.WriteString(w, `{"job_id":`)
		}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewClient(srv.URL, quickRetries).Status(context.Background(), "j1")
		runtime.ReadMemStats(&after)
		srv.Close()
		if err == nil || errors.Is(err, ErrReplyTooLarge) || retry.Classify(err) != retry.Transient {
			t.Fatalf("reply declaring %d bytes and sending 10: error %v, want a transient read error", declared, err)
		}
		if n := hits.Load(); n != 3 {
			t.Fatalf("reply declaring %d bytes and sending 10: asked %d times, want all 3 attempts", declared, n)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*maxPresize {
			t.Errorf("three replies declaring %d bytes and sending 10 allocated %d bytes", declared, grew)
		}
	}
}

// TestClientReadsChunkedLikeSized: a job's results, sent once with their
// length and once chunked, decode to the same value, and the client keeps
// one connection for all its calls: every reply is read to its end.
func TestClientReadsChunkedLikeSized(t *testing.T) {
	c, _ := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	results, tests, stats := localRun(t, c, JobOptions{SimInterval: intp(0)}, faults)
	want := ResultsResponse{JobID: "j1", State: stateDone, Results: resultColumns(nil, results), Tests: tests, Stats: stats}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == API+"/jobs/chunked/results" {
			w.Header().Set("Content-Type", "application/json")
			w.(http.Flusher).Flush() // headers first: the body goes out chunked
			_ = json.NewEncoder(w).Encode(want)
			return
		}
		writeJSON(w, http.StatusOK, want)
	}))
	var conns atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	var mu sync.Mutex
	lengths := make(map[string]int64)
	record := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err == nil {
			mu.Lock()
			lengths[req.URL.Path] = resp.ContentLength
			mu.Unlock()
		}
		return resp, err
	})
	cl := NewClient(srv.URL, WithTransport(record))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		sized, err := cl.Results(ctx, "sized")
		if err != nil {
			t.Fatal(err)
		}
		chunked, err := cl.Results(ctx, "chunked")
		if err != nil {
			t.Fatal(err)
		}
		if sized.Tests != tests || len(sized.Results.Status) != len(faults) {
			t.Fatal("the sized reply does not decode to the job's results")
		}
		if !reflect.DeepEqual(chunked, sized) {
			t.Fatal("the chunked and the sized reply decode differently")
		}
	}
	if n := lengths[API+"/jobs/sized/results"]; n <= 0 {
		t.Errorf("the sized reply declares %d bytes", n)
	}
	if n := lengths[API+"/jobs/chunked/results"]; n != -1 {
		t.Errorf("the chunked reply declares %d bytes, want none", n)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("six calls opened %d connections, want 1", n)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientCircuitBenchHonoursRetryAfter: a circuit fetch answered 503
// shutting-down with a Retry-After hint, as a coordinator answers while it
// shuts down, waits at least the hint before it asks again, and then reads
// the bench text.
func TestClientCircuitBenchHonoursRetryAfter(t *testing.T) {
	const bench = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n"
	var (
		mu    sync.Mutex
		asked []time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		asked = append(asked, time.Now())
		first := len(asked) == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "shutting-down", "coordinator shutting down")
			return
		}
		_, _ = io.WriteString(w, bench)
	}))
	defer srv.Close()
	text, err := NewClient(srv.URL).CircuitBench(context.Background(), "h")
	if err != nil || text != bench {
		t.Fatalf("CircuitBench = %q, %v; want the bench text", text, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) != 2 {
		t.Fatalf("asked %d times, want 2", len(asked))
	}
	if wait := asked[1].Sub(asked[0]); wait < time.Second {
		t.Errorf("the second attempt came %v after the first, before the 1 s Retry-After hint", wait)
	}
}

// TestClientCircuitBenchUnknownIsTerminal: a coordinator that does not hold
// the circuit answers 404 unknown-circuit, which the client reports as
// ErrUnknownCircuit without asking again.
func TestClientCircuitBenchUnknownIsTerminal(t *testing.T) {
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		co.ServeHTTP(w, r)
	}))
	defer srv.Close()
	_, err = NewClient(srv.URL, quickRetries).CircuitBench(context.Background(), HashBench("INPUT(a)\n"))
	if !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("error %v, want ErrUnknownCircuit", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || retry.Classify(err) != retry.Terminal {
		t.Errorf("error %v, want a terminal 404", err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("asked %d times, want 1: a 404 is not retried", n)
	}
}
