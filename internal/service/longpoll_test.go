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
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/retry"
)

// The tests below park their calls for the full longPollWait window but
// give themselves only testBudget: a wake that never comes fails the test
// instead of passing once the window runs out.
const testBudget = 5 * time.Second

func budget(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), testBudget)
	t.Cleanup(cancel)
	return ctx
}

// loopback serves a coordinator, wrapped in wrap when it is set, over a
// loopback server and returns the server's URL.  Cleanup closes the
// coordinator first: its shutdown answers any still-parked request, so the
// server's Close does not wait out a window.
func loopback(t *testing.T, cfg Config, wrap func(http.Handler) http.Handler) (*Coordinator, string) {
	t.Helper()
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = co
	if wrap != nil {
		h = wrap(co)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(co.Close)
	return co, srv.URL
}

// parked blocks until a request has taken b's channel after this call
// began.  The first fire discards a channel a finished request may have
// left behind; a request that already waits just wakes, re-checks and
// takes the new channel.  A request holding the channel is parked: any
// later fire wakes it.
func parked(ctx context.Context, t *testing.T, b *broadcast) {
	t.Helper()
	b.fire()
	for {
		b.mu.Lock()
		taken := b.ch != nil
		b.mu.Unlock()
		if taken {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatal("no request parked")
		case <-time.After(time.Millisecond):
		}
	}
}

type leaseResult struct {
	lease LeaseResponse
	ok    bool
	err   error
}

func leaseAsync(ctx context.Context, cl *Client, worker string, max int) <-chan leaseResult {
	ch := make(chan leaseResult, 1)
	go func() {
		l, ok, err := cl.Lease(ctx, worker, max, longPollWait)
		ch <- leaseResult{l, ok, err}
	}()
	return ch
}

// submitC17 submits sample faults of c17, cut into one unit per fault.
func submitC17(ctx context.Context, t *testing.T, cl *Client, n int) SubmitResponse {
	t.Helper()
	c, text := benchText(t, "c17")
	sub, err := cl.SubmitBench(ctx, "c17", text, JobOptions{WordWidth: 1, SimInterval: intp(0)},
		EncodeFaults(c, paths.SampleFaults(c, n, 1995)))
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestParkedLeaseWakesOnSubmit: a lease parked on an empty coordinator is
// granted units as soon as a job's pass starts.
func TestParkedLeaseWakesOnSubmit(t *testing.T) {
	ctx := budget(t)
	co, url := loopback(t, Config{}, nil)
	cl := NewClient(url)
	got := leaseAsync(ctx, cl, "w", 4)
	parked(ctx, t, &co.work)
	sub := submitC17(ctx, t, cl, 3)
	r := <-got
	if r.err != nil || !r.ok {
		t.Fatalf("parked lease: ok=%v err=%v, want units", r.ok, r.err)
	}
	if r.lease.JobID != sub.JobID || len(r.lease.Units) != 3 {
		t.Fatalf("parked lease got %d units of %q, want 3 of %q", len(r.lease.Units), r.lease.JobID, sub.JobID)
	}
}

// TestLeaseScansLiveJobsOnly: a finished job leaves the list leases scan,
// while its status is still served, and the jobs submitted afterwards lease
// oldest-first.
func TestLeaseScansLiveJobsOnly(t *testing.T) {
	ctx := budget(t)
	co, url := loopback(t, Config{}, nil)
	cl := NewClient(url)
	// The worker reaches the coordinator through a server of its own.  A
	// stopped worker's last lease request may still be parked there until
	// net/http notices the hang-up; closing the server waits for it, so it
	// cannot take a unit of the jobs submitted afterwards.
	wsrv := httptest.NewServer(co)
	t.Cleanup(func() {
		co.Close() // answers a request still parked if the test failed early
		wsrv.Close()
	})
	// until polls cond every millisecond within the test's budget.
	until := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			select {
			case <-ctx.Done():
				t.Fatal(what)
			case <-time.After(time.Millisecond):
			}
		}
	}
	scanned := func() []string {
		co.mu.Lock()
		defer co.mu.Unlock()
		return slices.Clone(co.order)
	}

	stop := startWorkers(t, wsrv.URL, 1)
	var finished []string
	for i := 0; i < 3; i++ {
		finished = append(finished, submitC17(ctx, t, cl, 2).JobID)
	}
	for _, id := range finished {
		if st, err := cl.Wait(ctx, id); err != nil || st.State != stateDone {
			t.Fatalf("job %s: %+v, %v; want done", id, st, err)
		}
	}
	stop()
	wsrv.Close()
	until("finished jobs stay in the lease scan list", func() bool { return len(scanned()) == 0 })
	for _, id := range finished {
		if st, err := cl.Status(ctx, id); err != nil || st.State != stateDone {
			t.Fatalf("status of finished job %s: %+v, %v; want done", id, st, err)
		}
	}

	older, newer := submitC17(ctx, t, cl, 2).JobID, submitC17(ctx, t, cl, 2).JobID
	if got := scanned(); !slices.Equal(got, []string{older, newer}) {
		t.Fatalf("lease scan list %v, want [%s %s]", got, older, newer)
	}
	for _, id := range []string{older, newer} {
		j := co.job(id)
		until("job "+id+" never started its pass", func() bool {
			j.mu.Lock()
			defer j.mu.Unlock()
			return j.state == stateRunning && j.pass != nil
		})
	}
	for _, want := range []string{older, newer} {
		l, ok, err := cl.Lease(ctx, "w", 10, 0)
		if err != nil || !ok || l.JobID != want {
			t.Fatalf("lease: job %q ok=%v err=%v; want every unit of %s", l.JobID, ok, err, want)
		}
	}
}

// TestParkedLeaseWakesOnRequeue: a unit the expiry sweep requeues wakes a
// parked lease, which is granted exactly the requeued unit.
func TestParkedLeaseWakesOnRequeue(t *testing.T) {
	ctx := budget(t)
	co, url := loopback(t, Config{LeaseTTL: 200 * time.Millisecond}, nil)
	cl := NewClient(url)
	sub := submitC17(ctx, t, cl, 1)
	ghost, ok, err := cl.Lease(ctx, "ghost", 10, longPollWait)
	if err != nil || !ok || len(ghost.Units) != 1 {
		t.Fatalf("ghost lease: ok=%v err=%v units=%d, want the job's one unit", ok, err, len(ghost.Units))
	}
	got := leaseAsync(ctx, cl, "live", 10)
	parked(ctx, t, &co.work)
	r := <-got
	if r.err != nil || !r.ok {
		t.Fatalf("parked lease: ok=%v err=%v, want the requeued unit", r.ok, r.err)
	}
	if len(r.lease.Units) != 1 || r.lease.Units[0].ID != ghost.Units[0].ID {
		t.Fatalf("parked lease got units %+v, want the ghost's %+v", r.lease.Units, ghost.Units)
	}
	st, err := cl.Status(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", st.Requeues)
	}
}

// TestParkedLeaseHangUp: a worker that hangs up while its lease is parked
// is granted nothing.  Over the wire, the handler notices the closed
// connection and returns, and a job submitted afterwards has all its units
// leased by a live worker: none sits out a lease TTL (30 s here, far past
// the test's budget), so there are no requeues.  In-process, with units
// leasable but no wake sent, ending the request's context must wake the
// handler without it ever scanning the queues again.
func TestParkedLeaseHangUp(t *testing.T) {
	ctx := budget(t)
	leaseDone := make(chan struct{}, 1)
	co, url := loopback(t, Config{}, func(co http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			co.ServeHTTP(w, r)
			if r.URL.Path == API+"/lease" {
				select {
				case leaseDone <- struct{}{}:
				default:
				}
			}
		})
	})
	cl := NewClient(url)

	gctx, hangUp := context.WithCancel(ctx)
	ghost := leaseAsync(gctx, cl, "ghost", 100)
	parked(ctx, t, &co.work)
	hangUp()
	if r := <-ghost; r.ok || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("hung-up lease: ok=%v err=%v, want context.Canceled", r.ok, r.err)
	}
	select {
	case <-leaseDone:
	case <-ctx.Done():
		t.Fatal("parked lease handler still running after its client hung up")
	}

	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{WordWidth: 8, SimInterval: intp(0)}
	sub, err := cl.SubmitBench(ctx, "c432", text, opts, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	wctx, stop := context.WithCancel(ctx)
	wk := NewWorker(WorkerConfig{Coordinator: url, ID: "live"})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = wk.Run(wctx)
	}()
	st, err := cl.Wait(ctx, sub.JobID)
	stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != stateDone || st.Requeues != 0 {
		t.Fatalf("job ended %s with %d requeues, want done with 0", st.State, st.Requeues)
	}
	if units := wk.Counters().Units; units != int64(st.Leases) {
		t.Fatalf("live worker processed %d units of %d leased", units, st.Leases)
	}

	// A holder takes every unit of a second job; a parked lease waits.
	sub, err = cl.SubmitBench(ctx, "c432", text, opts, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Lease(ctx, "holder", 100, longPollWait); err != nil || !ok {
		t.Fatalf("holder lease: ok=%v err=%v", ok, err)
	}
	rctx, hangUp := context.WithCancel(ctx)
	rec := httptest.NewRecorder()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		req := httptest.NewRequestWithContext(rctx, http.MethodPost, API+"/lease",
			strings.NewReader(`{"worker":"ghost2","max_units":100,"wait_ms":25000}`))
		co.ServeHTTP(rec, req)
	}()
	parked(ctx, t, &co.work)
	// Requeue the holder's units without firing the work signal, then hang
	// up: the only wake the handler gets is its own context ending.
	j := co.job(sub.JobID)
	j.mu.Lock()
	requeued := j.pass.q.Expire(time.Now().Add(time.Hour))
	j.mu.Unlock()
	if requeued == 0 {
		t.Fatal("no unit requeued")
	}
	hangUp()
	<-handled
	if rec.Body.Len() != 0 {
		t.Fatalf("hung-up lease was answered %d: %s", rec.Code, rec.Body)
	}
}

// TestStatusWait: a status request naming a stale state returns at once; one
// naming the current state parks until the state changes.
func TestStatusWait(t *testing.T) {
	ctx := budget(t)
	co, url := loopback(t, Config{}, nil)
	cl := NewClient(url)
	sub := submitC17(ctx, t, cl, 3)
	j := co.job(sub.JobID)

	st, err := cl.statusWait(ctx, sub.JobID, stateQueued, longPollWait)
	if err != nil || st.State != stateRunning {
		t.Fatalf("status past queued: %+v, %v; want running", st, err)
	}
	start := time.Now()
	st, err = cl.statusWait(ctx, sub.JobID, stateQueued, longPollWait)
	if err != nil || st.State != stateRunning {
		t.Fatalf("status naming a stale state: %+v, %v; want running", st, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("status naming a stale state took %v, want an immediate answer", d)
	}

	got := make(chan JobStatus, 1)
	go func() {
		st, err := cl.statusWait(ctx, sub.JobID, stateRunning, longPollWait)
		if err != nil {
			t.Error(err)
		}
		got <- st
	}()
	parked(ctx, t, &j.stateSig)
	if _, err := cl.Cancel(ctx, sub.JobID); err != nil {
		t.Fatal(err)
	}
	if st := <-got; st.State != stateCanceled {
		t.Fatalf("parked status returned %q, want canceled", st.State)
	}
}

// TestShutdownEndsParkedRequests: with a lease, a status wait and an event
// wait parked, http.Server.Shutdown returns at once (the coordinator's
// shutdown is registered with it), and each parked call ends in 503
// shutting-down.
func TestShutdownEndsParkedRequests(t *testing.T) {
	ctx := budget(t)
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := &http.Server{Handler: co}
	srv.RegisterOnShutdown(co.BeginShutdown)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	// One attempt per call, so the 503 itself is the answer.
	cl := NewClient("http://"+ln.Addr().String(), WithRetryPolicy(retry.Policy{Attempts: 1}))

	sub := submitC17(ctx, t, cl, 2)
	if _, ok, err := cl.Lease(ctx, "ghost", 10, longPollWait); err != nil || !ok {
		t.Fatalf("ghost lease: ok=%v err=%v", ok, err)
	}
	j := co.job(sub.JobID)
	errs := make(chan error, 3)
	go func() {
		_, _, err := cl.Lease(ctx, "w", 4, longPollWait)
		errs <- err
	}()
	go func() {
		_, err := cl.statusWait(ctx, sub.JobID, stateRunning, longPollWait)
		errs <- err
	}()
	go func() {
		_, err := cl.Events(ctx, sub.JobID, 0, longPollWait)
		errs <- err
	}()
	parked(ctx, t, &co.work)
	parked(ctx, t, &j.stateSig)
	parked(ctx, t, &j.evSig)

	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v with parked requests, want under 1s", d)
	}
	for range 3 {
		var apiErr *APIError
		if err := <-errs; !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != "shutting-down" {
			t.Errorf("parked call ended with %v, want 503 shutting-down", err)
		}
	}
}

// TestShutdownHidesCloseCancellation: Close leaves running jobs canceled in
// memory only.  A request that got past the front check before the drain
// began must still not read that state: every job-state answer rechecks
// the drain after reading.  Driving the mux directly plays such a request.
func TestShutdownHidesCloseCancellation(t *testing.T) {
	ctx := budget(t)
	co, url := loopback(t, Config{}, nil)
	sub := submitC17(ctx, t, NewClient(url), 2)
	co.Close()
	if st := co.statusOf(co.job(sub.JobID)); st.State != stateCanceled {
		t.Fatalf("job is %q in memory after Close, want canceled", st.State)
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/" + sub.JobID},
		{http.MethodGet, "/jobs/" + sub.JobID + "/results"},
		{http.MethodGet, "/jobs/" + sub.JobID + "/events?from=0"},
		{http.MethodDelete, "/jobs/" + sub.JobID},
	} {
		rec := httptest.NewRecorder()
		co.mux.ServeHTTP(rec, httptest.NewRequest(req.method, API+req.path, nil))
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "shutting-down") {
			t.Errorf("%s %s after Close: HTTP %d %s, want 503 shutting-down", req.method, req.path, rec.Code, rec.Body)
		}
	}
}

// swapProxy fronts whichever coordinator is current, so a restarted
// coordinator takes over its predecessor's address.
type swapProxy struct {
	// onStatusWait is told of each status request that names a state.
	onStatusWait func(state string)

	mu     sync.Mutex
	target http.Handler
}

func (p *swapProxy) set(h http.Handler) {
	p.mu.Lock()
	p.target = h
	p.mu.Unlock()
}

func (p *swapProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s := r.URL.Query().Get("state"); s != "" {
		p.onStatusWait(s)
	}
	p.mu.Lock()
	h := p.target
	p.mu.Unlock()
	h.ServeHTTP(w, r)
}

// TestWaitSurvivesCoordinatorRestart: a Client.Wait parked on coordinator A
// rides out A's shutdown — it must never report the in-memory cancellation
// A's Close leaves behind — and returns done from coordinator B, which
// resumed the job from the same ledger behind the same address.
func TestWaitSurvivesCoordinatorRestart(t *testing.T) {
	ctx := budget(t)
	dir := t.TempDir()
	running := make(chan struct{}, 1)
	proxy := &swapProxy{onStatusWait: func(state string) {
		if state == stateRunning {
			select {
			case running <- struct{}{}:
			default:
			}
		}
	}}
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	coA, err := NewCoordinator(Config{LedgerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	proxy.set(coA)
	cl := NewClient(srv.URL, WithRetryPolicy(retry.Policy{Initial: 5 * time.Millisecond, Max: 50 * time.Millisecond}))

	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 16, 1995)
	opts := JobOptions{WordWidth: 8, SimInterval: intp(0), Compact: "reverse"}
	localResults, localTests, _ := localRun(t, c, opts, faults)
	sub, err := cl.SubmitBench(ctx, "c432", text, opts, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	type waited struct {
		st  JobStatus
		err error
	}
	got := make(chan waited, 1)
	go func() {
		st, err := cl.Wait(ctx, sub.JobID)
		got <- waited{st, err}
	}()
	select {
	case <-running:
	case <-ctx.Done():
		t.Fatal("Wait never asked to wait on the running state")
	}
	parked(ctx, t, &coA.job(sub.JobID).stateSig)

	coA.Close()
	coB, err := NewCoordinator(Config{LedgerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer coB.Close()
	proxy.set(coB)
	stop := startWorkers(t, srv.URL, 1)
	defer stop()

	w := <-got
	if w.err != nil || w.st.State != stateDone {
		t.Fatalf("Wait across the restart: %+v, %v; want done", w.st, w.err)
	}
	resp, err := cl.Results(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range decoded(t, faults, resp) {
		if want := localResults[i].Status; r.Status != want {
			t.Fatalf("fault %d (%s): status %s, local %s", i, faults[i].Describe(c), r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from the uninterrupted run")
	}
}

// severProxy lets the first event poll through, then severs the next sever
// polls mid-body: headers sent, the body cut short of its declared length.
// It holds every result report after the first until the last sever has
// fired, so the job cannot finish, and the first poll cannot carry the whole
// feed, before the severs land, however the scheduler orders the goroutines.
type severProxy struct {
	inner http.Handler
	spent chan struct{} // closed when the last sever fires

	mu      sync.Mutex
	polls   int
	reports int
	sever   int
}

func (p *severProxy) left() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sever
}

func (p *severProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events") {
		p.mu.Lock()
		p.polls++
		cut := p.polls > 1 && p.sever > 0
		if cut {
			p.sever--
			if p.sever == 0 {
				close(p.spent)
			}
		}
		p.mu.Unlock()
		if cut {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			_, _ = conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"events\":["))
			_ = conn.Close()
			return
		}
	}
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/results") {
		p.mu.Lock()
		p.reports++
		held := p.reports > 1
		p.mu.Unlock()
		if held {
			// Consume the body first: net/http cancels r.Context() on a
			// client hang-up only once the body is read.
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-p.spent:
			case <-r.Context().Done():
				return
			}
		}
	}
	p.inner.ServeHTTP(w, r)
}

// TestFollowReconnects severs six consecutive event polls in the middle of
// a job — more than one call's retry budget, so Follow's own reconnect
// engages — and demands every settle event arrive exactly once, in the
// feed's order.  The job's six units go out in two leases, so its second
// result report, held by the proxy, keeps it running until the severs land.
func TestFollowReconnects(t *testing.T) {
	ctx := budget(t)
	const severs = 6
	var proxy *severProxy
	co, url := loopback(t, Config{}, func(co http.Handler) http.Handler {
		proxy = &severProxy{inner: co, sever: severs, spent: make(chan struct{})}
		return proxy
	})
	cl := NewClient(url, WithRetryPolicy(retry.Policy{Initial: 5 * time.Millisecond, Max: 20 * time.Millisecond}))

	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	sub, err := cl.SubmitBench(ctx, "c432", text, JobOptions{WordWidth: 8, SimInterval: intp(0)}, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	var got []core.FaultResult
	followed := make(chan error, 1)
	go func() {
		for page, err := range cl.Follow(ctx, sub.JobID) {
			if err == nil {
				var results []core.FaultResult
				results, err = page.DecodePage(faults)
				got = append(got, results...)
			}
			if err != nil {
				followed <- err
				return
			}
		}
		followed <- nil
	}()
	parked(ctx, t, &co.job(sub.JobID).evSig) // the first poll waits for events
	stop := startWorkers(t, url, 2)
	defer stop()
	if err := <-followed; err != nil {
		t.Fatal(err)
	}
	if n := proxy.left(); n != 0 {
		t.Fatalf("only %d of %d severs fired", severs-n, severs)
	}
	feed, err := cl.Events(ctx, sub.JobID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	events, err := feed.Events.DecodePage(faults)
	if err != nil {
		t.Fatal(err)
	}
	if !feed.Done || len(events) != len(faults) {
		t.Fatalf("feed holds %d events (done %v), want %d", len(events), feed.Done, len(faults))
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("Follow delivered %d events that differ from the feed's %d (lost, doubled or reordered)", len(got), len(events))
	}
}

// TestServiceBodyDeadline: a lease request that declares more bytes than it
// sends is answered 400 and has its connection closed once bodyReadTimeout
// passes, while a lease that sent its body and stays parked for longer than
// bodyReadTimeout still gets its units: the deadline is cleared once the
// body is read.
func TestServiceBodyDeadline(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 200 * time.Millisecond
	ctx := budget(t)
	co, url := loopback(t, Config{}, nil)

	type reply struct {
		lease LeaseResponse
		code  int
		err   error
	}
	parkedLease := make(chan reply, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+API+"/lease",
			strings.NewReader(`{"worker":"parked","max_units":100,"wait_ms":4000}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			parkedLease <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var l LeaseResponse
		err = json.NewDecoder(resp.Body).Decode(&l)
		parkedLease <- reply{l, resp.StatusCode, err}
	}()
	parked(ctx, t, &co.work)

	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(testBudget)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := io.WriteString(conn, "POST "+API+"/lease HTTP/1.1\r\nHost: coordinator\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"worker\":"); err != nil {
		t.Fatal(err)
	}
	answer, err := io.ReadAll(conn)
	closed := time.Since(start)
	if err != nil {
		t.Fatalf("withheld body: connection still open after %v (%v)", closed, err)
	}
	if closed < bodyReadTimeout {
		t.Errorf("withheld body: connection closed after %v, before the %v deadline", closed, bodyReadTimeout)
	}
	if !bytes.HasPrefix(answer, []byte("HTTP/1.1 400 ")) {
		t.Errorf("withheld body answered %q, want 400", answer)
	}

	// The parked lease has now waited past the deadline; a job's units
	// must still reach it.
	time.Sleep(2 * bodyReadTimeout)
	submitC17(ctx, t, NewClient(url), 4)
	r := <-parkedLease
	if r.err != nil || r.code != http.StatusOK || len(r.lease.Units) == 0 {
		t.Fatalf("lease parked past the body deadline: code %d, %d units, err %v", r.code, len(r.lease.Units), r.err)
	}
}
