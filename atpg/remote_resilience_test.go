package atpg

// Resilience tests for the remote facade.  These live inside the package so
// they can shrink cancelTimeout; the happy-path equivalence tests are in
// remote_test.go (package atpg_test).

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// faultingProxy fronts a coordinator handler and misbehaves on demand: it
// severs the first severEvents long-poll responses mid-body (headers sent,
// connection slammed shut) and stalls DELETEs by delayCancel.  It also
// counts job submissions and cancels, so tests can prove a reconnecting
// client never re-submits.
type faultingProxy struct {
	inner       http.Handler
	delayCancel time.Duration

	mu          sync.Mutex
	severEvents int
	posts       int
	cancels     int
}

func (p *faultingProxy) counts() (posts, cancels, severLeft int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.posts, p.cancels, p.severEvents
}

// statusRecorder captures the handler's status code so the proxy can tell
// an accepted submission from the hash-first 409 handshake.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (p *faultingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == service.API+"/jobs" {
		// Only count accepted submissions: the content-addressed handshake
		// legitimately POSTs twice (hash-only probe, 409, bench upload).
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		p.inner.ServeHTTP(rec, r)
		if rec.code < 300 {
			p.mu.Lock()
			p.posts++
			p.mu.Unlock()
		}
		return
	}
	if r.Method == http.MethodDelete {
		p.mu.Lock()
		p.cancels++
		p.mu.Unlock()
		if p.delayCancel > 0 {
			// Stall until the client gives up; return as soon as it hangs
			// up so server shutdown is not held hostage too.
			select {
			case <-time.After(p.delayCancel):
			case <-r.Context().Done():
				return
			}
		}
	}
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events") {
		p.mu.Lock()
		sever := p.severEvents > 0
		if sever {
			p.severEvents--
		}
		p.mu.Unlock()
		if sever {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			// A believable mid-flight failure: status and headers arrive,
			// the body dies short of the declared length.
			_, _ = conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"events\":["))
			_ = conn.Close()
			return
		}
	}
	p.inner.ServeHTTP(w, r)
}

// startProxiedService runs a coordinator behind proxy with n workers.
func startProxiedService(t *testing.T, proxy *faultingProxy, n int) string {
	t.Helper()
	co, err := service.NewCoordinator(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proxy.inner = co
	srv := httptest.NewServer(proxy)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wk := service.NewWorker(service.WorkerConfig{
			Coordinator: srv.URL,
			ID:          "w" + string(rune('1'+i)),
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		srv.Close()
		co.Close()
	})
	return srv.URL
}

// TestRemoteEventsReconnect severs six consecutive event long-polls — enough
// to exhaust the client's per-call retry budget and force Client.Follow's
// reconnect layer — and demands the run still complete on the SAME job: one
// submission, every fault settling exactly once through the progress
// callback, statuses bit-identical to a local run.
func TestRemoteEventsReconnect(t *testing.T) {
	c, err := Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := SampleFaults(c, 48, 1995)

	local, err := New(c, WithInterleavedSim(0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Run(context.Background(), faults)
	if err != nil {
		t.Fatal(err)
	}

	proxy := &faultingProxy{severEvents: 6}
	url := startProxiedService(t, proxy, 1)
	var progressed int
	remote, err := New(c, WithInterleavedSim(0), WithRemote(url),
		WithProgress(func(Result) { progressed++ }))
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.Run(context.Background(), faults)
	if err != nil {
		t.Fatal(err)
	}

	posts, _, severLeft := proxy.counts()
	if severLeft != 0 {
		t.Fatalf("only %d of 6 severed long-polls were consumed", 6-severLeft)
	}
	if posts != 1 {
		t.Fatalf("job submitted %d times across reconnects, want exactly 1", posts)
	}
	if progressed != len(faults) {
		t.Errorf("progress ran %d times across reconnects, want %d (no loss, no replay)",
			progressed, len(faults))
	}
	if len(got) != len(want) {
		t.Fatalf("remote returned %d results, local %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Status != want[i].Status {
			t.Errorf("fault %d: remote status %v after reconnects, local %v",
				i, got[i].Status, want[i].Status)
		}
	}
}

// TestRemoteCancelDeleteTimesOut covers the branch where cancellation
// propagation itself hangs: the DELETE stalls past cancelTimeout.  The
// caller must still get ErrCanceled promptly — a wedged coordinator cannot
// hold the local engine hostage.
func TestRemoteCancelDeleteTimesOut(t *testing.T) {
	c, err := Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := SampleFaults(c, 16, 1995)

	saved := cancelTimeout
	cancelTimeout = 50 * time.Millisecond
	defer func() { cancelTimeout = saved }()

	// No workers: the job can never finish, so Run blocks in Wait until the
	// context dies.  The DELETE then stalls far past cancelTimeout.
	proxy := &faultingProxy{delayCancel: 5 * time.Second}
	url := startProxiedService(t, proxy, 0)
	e, err := New(c, WithInterleavedSim(0), WithRemote(url))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = e.Run(ctx, faults)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run = %v, want ErrCanceled", err)
	}
	if _, cancels, _ := proxy.counts(); cancels == 0 {
		t.Fatal("cancellation was never propagated to the coordinator")
	}
	// The DELETE sleeps 5s; returning well under that proves the
	// self-deadlined context cut it loose.
	if elapsed > 3*time.Second {
		t.Fatalf("Run took %v to return after cancel; cancelTimeout did not bound the DELETE", elapsed)
	}
}

// TestRemoteImportRejectsWrongWidth feeds the import of a finished job a
// test set whose pattern has one value more than the circuit has inputs:
// the import must refuse it instead of appending a pattern no later
// simulation of the engine's set could load.
func TestRemoteImportRejectsWrongWidth(t *testing.T) {
	c, err := Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.c.Inputs()) + 1
	tests := strings.Repeat("0", n) + " -> " + strings.Repeat("1", n) + "\n"
	if _, err := e.importRemote(nil, service.ResultsResponse{State: "done", Tests: tests}); err == nil {
		t.Fatal("importing a wrong-width test set succeeded")
	}
	if e.Tests().Len() != 0 {
		t.Fatalf("the refused import left %d patterns in the engine's set", e.Tests().Len())
	}
}

// TestRemoteImportRejectsMisindexedResults: final results hold one row per
// submitted fault, in fault order, with no fault indices, so the import
// refuses a response with a row too few or too many and one that carries
// indices (even 0..n-1), and leaves the engine's set untouched.
func TestRemoteImportRejectsMisindexedResults(t *testing.T) {
	c, err := Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := SampleFaults(c, 3, 1)
	// aborted returns the columns of aborted results for the faults at
	// index, or of n faults in fault order when index is nil.
	aborted := func(n int, index []int) service.ResultColumns {
		if index != nil {
			n = len(index)
		}
		rc := service.ResultColumns{Index: index}
		rc.Status, rc.Phase = strings.Repeat("a", n), strings.Repeat("n", n)
		rc.Decisions, rc.Backtracks, rc.PatternIndex = make([]int, n), make([]int, n), make([]int, n)
		for k := range rc.PatternIndex {
			rc.PatternIndex[k] = -1
		}
		return rc
	}
	tests := strings.Repeat("0", len(c.c.Inputs())) + " -> " + strings.Repeat("1", len(c.c.Inputs())) + "\n"
	for name, results := range map[string]service.ResultColumns{
		"short":         aborted(2, nil),
		"long":          aborted(4, nil),
		"indexed":       aborted(0, []int{0, 1, 2}),
		"short indexed": aborted(0, []int{0, 1}),
		"long indexed":  aborted(0, []int{0, 1, 2, 2}),
		"misplaced":     aborted(0, []int{0, 2, 1}),
		"out of range":  aborted(0, []int{0, 1, 3}),
	} {
		resp := service.ResultsResponse{State: "done", Results: results, Tests: tests}
		if _, err := e.importRemote(faults, resp); err == nil {
			t.Errorf("%s: importing misindexed results succeeded", name)
		}
		if e.Tests().Len() != 0 {
			t.Fatalf("%s: the refused import left %d patterns in the engine's set", name, e.Tests().Len())
		}
	}
	ok := service.ResultsResponse{State: "done", Results: aborted(3, nil), Tests: tests}
	results, err := e.importRemote(faults, ok)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if c.Describe(r.Fault) != c.Describe(faults[i]) {
			t.Errorf("result %d is for %s, want %s", i, c.Describe(r.Fault), c.Describe(faults[i]))
		}
	}
}

// TestRemoteEventOutOfRange: a page of settle events one of whose indices
// lies outside the submitted list, or whose index and status columns differ
// in length, ends the event feed with an error, and none of the page's
// events reaches the progress callback.
func TestRemoteEventOutOfRange(t *testing.T) {
	c, err := Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := SampleFaults(c, 2, 1)
	for name, page := range map[string]string{
		"out of range": `{"status":"aa","phase":"nn","decisions":[0,0],"backtracks":[0,0],"pattern_index":[-1,-1],"index":[0,2]}`,
		"no index":     `{"status":"aa","phase":"nn","decisions":[0,0],"backtracks":[0,0],"pattern_index":[-1,-1]}`,
		"no status":    `{"status":"","phase":"","decisions":[],"backtracks":[],"pattern_index":[],"index":[0,1]}`,
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"events":` + page + `,"next":2,"done":true}`))
		}))
		delivered := 0
		err = e.followEvents(context.Background(), service.NewClient(srv.URL), "j1", faults, func(Result) bool {
			delivered++
			return true
		})
		srv.Close()
		if err == nil {
			t.Errorf("%s: a page that does not line up with the faults was accepted", name)
		}
		if delivered != 0 {
			t.Errorf("%s: %d events reached the consumer, want none: the page is refused whole", name, delivered)
		}
	}
}
