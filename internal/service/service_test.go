package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/paths"
)

// benchText loads a built-in circuit and renders the exact .bench text a
// client would submit.
func benchText(tb testing.TB, name string) (*circuit.Circuit, string) {
	tb.Helper()
	c, err := bench.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := circuit.WriteBench(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return c, buf.String()
}

// localRun is the single-process baseline a distributed run must match:
// a sharded in-process run, whose canonical fault-order merge + compaction
// is exactly the pipeline distributed results flow through.  (Statuses are
// in turn identical to the sequential generator's — that is the engine's
// own determinism contract, covered by the core tests.)
func localRun(t *testing.T, c *circuit.Circuit, opts JobOptions, faults []paths.Fault) ([]core.FaultResult, string, core.Stats) {
	t.Helper()
	coreOpts, err := opts.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	master := core.New(c, coreOpts)
	results := core.RunSharded(context.Background(), master, faults, 2)
	var buf bytes.Buffer
	if err := master.TestSet().Write(&buf); err != nil {
		t.Fatal(err)
	}
	return results, buf.String(), master.Stats()
}

// startWorkers runs n service workers against the coordinator URL and
// returns a stop function that waits for them to exit.
func startWorkers(t *testing.T, url string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wk := NewWorker(WorkerConfig{
			Coordinator: url,
			ID:          "w" + string(rune('1'+i)),
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(ctx)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// classOf collapses a status name to its coverage class: "tested" and
// "detected-by-simulation" both mean the merged set covers the fault, and
// which one a fault gets depends on worker interleaving when the
// interleaved simulation is on.
func classOf(status string) string {
	if status == "tested" || status == "detected-by-simulation" {
		return "detected"
	}
	return status
}

func intp(v int) *int { return &v }

// TestServiceMatchesLocal is the service's half of the determinism
// contract: a distributed run over real HTTP with two workers and a narrow
// word (many units to lease) must be bit-identical in statuses — and
// byte-identical in the merged, compacted test set — to a single-process
// run with the same options while the interleaved simulation is off.  With
// the simulation on, Tested and DetectedBySim may swap between workers, but
// the coverage class of every fault and the total coverage must not move.
func TestServiceMatchesLocal(t *testing.T) {
	for _, tc := range []struct {
		name string
		sim  *int
	}{
		{"c432", intp(0)},
		{"c499", intp(0)},
		{"c880", intp(0)},
		{"c432-sim", nil}, // default interval: interleaved simulation on
	} {
		t.Run(tc.name, func(t *testing.T) {
			circuitName := tc.name
			if tc.sim == nil {
				circuitName = "c432"
			}
			c, text := benchText(t, circuitName)
			faults := paths.SampleFaults(c, 128, 1995)
			opts := JobOptions{
				WordWidth:   8,
				SimInterval: tc.sim,
				Compact:     "reverse",
			}
			localResults, localTests, localStats := localRun(t, c, opts, faults)

			co, err := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			srv := httptest.NewServer(co)
			defer srv.Close()
			stop := startWorkers(t, srv.URL, 2)
			defer stop()

			cl := NewClient(srv.URL)
			ctx := context.Background()
			sub, err := cl.SubmitBench(ctx, circuitName, text, opts, EncodeFaults(c, faults))
			if err != nil {
				t.Fatal(err)
			}
			if sub.Faults != len(faults) {
				t.Fatalf("submit accepted %d faults, want %d", sub.Faults, len(faults))
			}
			st, err := cl.Wait(ctx, sub.JobID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != "done" {
				t.Fatalf("job finished in state %q", st.State)
			}
			if st.Settled != len(faults) {
				t.Fatalf("settled %d of %d faults", st.Settled, len(faults))
			}
			resp, err := cl.Results(ctx, sub.JobID)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != len(localResults) {
				t.Fatalf("got %d results, want %d", len(resp.Results), len(localResults))
			}
			simOn := tc.sim == nil
			for i, r := range resp.Results {
				want := localResults[i].Status.String()
				if simOn {
					if classOf(r.Status) != classOf(want) {
						t.Fatalf("fault %d (%s): coverage class %s, local %s", i, r.Describe, r.Status, want)
					}
					continue
				}
				if r.Status != want {
					t.Fatalf("fault %d (%s): status %s, local %s", i, r.Describe, r.Status, want)
				}
				if r.PatternIndex != localResults[i].PatternIndex {
					t.Fatalf("fault %d: pattern index %d, local %d", i, r.PatternIndex, localResults[i].PatternIndex)
				}
			}
			if !simOn && resp.Tests != localTests {
				t.Fatalf("merged test set differs from local run:\nremote:\n%s\nlocal:\n%s", resp.Tests, localTests)
			}
			// Coverage must match in every mode.
			if got, want := resp.Stats.Coverage(), localStats.Coverage(); got != want {
				t.Fatalf("coverage %.4f, local %.4f", got, want)
			}
			if resp.Stats.Tested+resp.Stats.DetectedBySim != localStats.Tested+localStats.DetectedBySim {
				t.Fatalf("detected %d, local %d",
					resp.Stats.Tested+resp.Stats.DetectedBySim, localStats.Tested+localStats.DetectedBySim)
			}
		})
	}
}

// TestServiceRequeue kills a lease without completing it: a ghost worker
// grabs units and vanishes, the TTL expires, and the coordinator requeues
// the units to a live worker.  The run must still finish with the exact
// single-process statuses (at-least-once delivery cannot change
// classifications), and the late ghost report must be discarded as stale.
func TestServiceRequeue(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{SimInterval: intp(0), Compact: "reverse"}
	localResults, localTests, _ := localRun(t, c, opts, faults)

	co, err := NewCoordinator(Config{
		LeaseTTL:       300 * time.Millisecond,
		ExpireInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	sub, err := cl.SubmitBench(ctx, "c432", text, opts, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	// The ghost leases a batch (parking until the pass starts) and never
	// reports back.
	ghost, ok, err := cl.Lease(ctx, "ghost", 2, longPollWait)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(ghost.Units) == 0 {
		t.Fatal("ghost never got a lease")
	}

	stop := startWorkers(t, srv.URL, 1)
	defer stop()
	st, err := cl.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job finished in state %q", st.State)
	}
	if st.Requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1 after the ghost's lease expired", st.Requeues)
	}
	resp, err := cl.Results(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if want := localResults[i].Status.String(); r.Status != want {
			t.Fatalf("fault %d: status %s, local %s (requeue changed a classification)", i, r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from local run after requeue")
	}
	// The ghost finally reports in: the pass is long gone, so the batch is
	// discarded as stale rather than applied or errored.
	late := PostResults{Worker: "ghost", Pass: ghost.Pass}
	for _, u := range ghost.Units {
		outs := make([]WireOutcome, len(u.Faults))
		for i := range outs {
			outs[i] = WireOutcome{Status: "redundant", Phase: "aptpg"}
		}
		late.Units = append(late.Units, UnitResult{ID: u.ID, Faults: u.Faults, Outcomes: outs})
	}
	lateResp, err := cl.PostUnitResults(ctx, sub.JobID, late)
	if err != nil {
		t.Fatal(err)
	}
	if !lateResp.Stale {
		t.Fatal("late ghost report not flagged stale")
	}
}

// TestServiceRejectsWrongWidthPattern posts a batch whose Tested outcomes
// carry patterns one value wider than the circuit has inputs, then the same
// units with a wrong-width pattern for the cross-worker exchange.  Each
// batch must be refused whole with 400 before anything is applied or
// journaled — the merge would otherwise absorb patterns no simulation of
// the test set can load — and the job must still end byte-identical to a
// local run once the refused units' leases expire and a real worker
// processes them.
func TestServiceRejectsWrongWidthPattern(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{SimInterval: intp(0), Compact: "reverse"}
	localResults, localTests, _ := localRun(t, c, opts, faults)

	co, err := NewCoordinator(Config{
		LeaseTTL:       300 * time.Millisecond,
		ExpireInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	sub, err := cl.SubmitBench(ctx, "c432", text, opts, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	lease, ok, err := cl.Lease(ctx, "wide", 2, longPollWait)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(lease.Units) == 0 {
		t.Fatal("no lease for the wrong-width worker")
	}
	n := len(c.Inputs()) + 1
	wide := strings.Repeat("0", n) + " -> " + strings.Repeat("1", n)
	post := PostResults{Worker: "wide", Pass: lease.Pass}
	for _, u := range lease.Units {
		outs := make([]WireOutcome, len(u.Faults))
		for i := range outs {
			outs[i] = WireOutcome{Status: "tested", Phase: "fptpg", Test: wide}
		}
		post.Units = append(post.Units, UnitResult{ID: u.ID, Faults: u.Faults, Outcomes: outs})
	}
	_, err = cl.PostUnitResults(ctx, sub.JobID, post)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad-unit" {
		t.Fatalf("posting wrong-width patterns: err = %v, want 400 bad-unit", err)
	}
	// The same units reported without patterns, but with a wrong-width
	// pattern for the cross-worker exchange, are refused as well.
	post.Patterns = []WirePattern{{Worker: "wide", Test: wide}}
	for _, u := range post.Units {
		for i := range u.Outcomes {
			u.Outcomes[i] = WireOutcome{Status: "aborted", Phase: "aptpg"}
		}
	}
	_, err = cl.PostUnitResults(ctx, sub.JobID, post)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("posting a wrong-width exchange pattern: err = %v, want 400", err)
	}
	if st, err := cl.Status(ctx, sub.JobID); err != nil || st.Settled != 0 {
		t.Fatalf("after the refused batches: settled %d (err %v), want 0", st.Settled, err)
	}

	stop := startWorkers(t, srv.URL, 1)
	defer stop()
	st, err := cl.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job finished in state %q", st.State)
	}
	resp, err := cl.Results(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if want := localResults[i].Status.String(); r.Status != want {
			t.Fatalf("fault %d: status %s, local %s", i, r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from local run after the refused batch")
	}
}

// spaces yields n ASCII spaces: JSON whitespace that pads a request body
// without changing what it decodes to.
type spaces struct{ n int }

func (s *spaces) Read(b []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	k := min(len(b), s.n)
	for i := range b[:k] {
		b[i] = ' '
	}
	s.n -= k
	return k, nil
}

// servePadded serves a POST whose body is v's JSON encoding padded with
// whitespace before its closing brace to exactly size bytes.  The request
// stays valid, so only its size can get it refused.
func servePadded(t *testing.T, co *Coordinator, path string, v any, size int) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	body := io.MultiReader(bytes.NewReader(b[:len(b)-1]), &spaces{size - len(b)}, strings.NewReader("}"))
	rec := httptest.NewRecorder()
	co.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, API+path, body))
	return rec
}

// assertTooLarge checks a 413 too-large answer.
func assertTooLarge(t *testing.T, rec *httptest.ResponseRecorder, route string) {
	t.Helper()
	var e ErrorResponse
	if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Code != "too-large" {
		t.Fatalf("%s one byte over its limit: %d %s, want 413 too-large", route, rec.Code, rec.Body)
	}
}

// ledgerSizes maps every file of a ledger directory to its size.
func ledgerSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi.Size()
	}
	return out
}

// TestServiceRefusesOversizeBodies posts a valid request padded to one byte
// over its route's limit to each route that reads a body: the submit, a
// lease and a unit-results post.  Each gets 413 too-large, and nothing is
// applied or journaled: no job, no lease, no settled fault, no ledger byte.
// The job then ends byte-identical to a local run.
func TestServiceRefusesOversizeBodies(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{SimInterval: intp(0), Compact: "reverse"}
	localResults, localTests, _ := localRun(t, c, opts, faults)

	dir := t.TempDir()
	co, err := NewCoordinator(Config{
		LedgerDir:      dir,
		LeaseTTL:       300 * time.Millisecond,
		ExpireInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	submit := SubmitRequest{Name: "c432", CircuitBench: text, Options: opts, Faults: EncodeFaults(c, faults)}
	assertTooLarge(t, servePadded(t, co, "/jobs", submit, maxSubmitBody+1), "POST /jobs")
	if n := len(ledgerSizes(t, dir)); n != 0 {
		t.Fatalf("the refused submit left %d ledger files", n)
	}
	// A lease request at its limit is read; with nothing leasable it gets
	// its 204 at once.
	lease := LeaseRequest{Worker: "big", MaxUnits: 2}
	if rec := servePadded(t, co, "/lease", lease, maxLeaseBody); rec.Code != http.StatusNoContent {
		t.Fatalf("POST /lease at its limit: %d %s, want 204", rec.Code, rec.Body)
	}

	sub, err := cl.SubmitBench(ctx, "c432", text, opts, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	assertTooLarge(t, servePadded(t, co, "/lease", lease, maxLeaseBody+1), "POST /lease")
	if st, err := cl.Status(ctx, sub.JobID); err != nil || st.Leases != 0 {
		t.Fatalf("after the refused lease: %d leases (err %v), want 0", st.Leases, err)
	}

	granted, ok, err := cl.Lease(ctx, "big", 2, longPollWait)
	if err != nil || !ok || len(granted.Units) == 0 {
		t.Fatalf("no lease for the oversize worker (ok %v, err %v)", ok, err)
	}
	post := PostResults{Worker: "big", Pass: granted.Pass}
	for _, u := range granted.Units {
		outs := make([]WireOutcome, len(u.Faults))
		for i := range outs {
			outs[i] = WireOutcome{Status: "aborted", Phase: "aptpg"}
		}
		post.Units = append(post.Units, UnitResult{ID: u.ID, Faults: u.Faults, Outcomes: outs})
	}
	journaled := ledgerSizes(t, dir)
	assertTooLarge(t, servePadded(t, co, "/jobs/"+sub.JobID+"/results", post, maxResultsBody+1), "POST /jobs/{id}/results")
	if st, err := cl.Status(ctx, sub.JobID); err != nil || st.Settled != 0 {
		t.Fatalf("after the refused results: settled %d (err %v), want 0", st.Settled, err)
	}
	if got := ledgerSizes(t, dir); !maps.Equal(got, journaled) {
		t.Fatalf("the refused results were journaled: ledger %v, before %v", got, journaled)
	}

	stop := startWorkers(t, srv.URL, 1)
	defer stop()
	st, err := cl.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job finished in state %q", st.State)
	}
	resp, err := cl.Results(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if want := localResults[i].Status.String(); r.Status != want {
			t.Fatalf("fault %d: status %s, local %s", i, r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from local run after the refused bodies")
	}
}

// TestServiceCancel checks client-driven cancellation: with no workers
// attached the job would wait forever, so DELETE must cancel the run,
// settle every fault and land the job in the terminal canceled state.
func TestServiceCancel(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 16, 1995)
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	sub, err := cl.SubmitBench(ctx, "c432", text, JobOptions{SimInterval: intp(0)}, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, sub.JobID); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "canceled" {
		t.Fatalf("state %q after cancel, want canceled", st.State)
	}
	resp, err := cl.Results(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.State != "canceled" {
		t.Fatalf("results state %q, want canceled", resp.State)
	}
	for _, r := range resp.Results {
		if r.Status == "pending" {
			t.Fatalf("fault %s left pending after cancel", r.Describe)
		}
	}
}

// TestServiceMultiTenant runs two jobs on different circuits through one
// worker pool concurrently; each must match its own single-process run.
func TestServiceMultiTenant(t *testing.T) {
	opts := JobOptions{SimInterval: intp(0), Compact: "reverse"}
	type tenant struct {
		name    string
		c       *circuit.Circuit
		text    string
		faults  []paths.Fault
		jobID   string
		results []core.FaultResult
		tests   string
	}
	tenants := []*tenant{{name: "c432"}, {name: "c880"}}
	for _, tn := range tenants {
		tn.c, tn.text = benchText(t, tn.name)
		tn.faults = paths.SampleFaults(tn.c, 64, 1995)
		tn.results, tn.tests, _ = localRun(t, tn.c, opts, tn.faults)
	}

	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	stop := startWorkers(t, srv.URL, 2)
	defer stop()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	for _, tn := range tenants {
		sub, err := cl.SubmitBench(ctx, tn.name, tn.text, opts, EncodeFaults(tn.c, tn.faults))
		if err != nil {
			t.Fatal(err)
		}
		tn.jobID = sub.JobID
	}
	for _, tn := range tenants {
		st, err := cl.Wait(ctx, tn.jobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("%s finished in state %q", tn.name, st.State)
		}
		resp, err := cl.Results(ctx, tn.jobID)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range resp.Results {
			if want := tn.results[i].Status.String(); r.Status != want {
				t.Fatalf("%s fault %d: status %s, local %s", tn.name, i, r.Status, want)
			}
		}
		if resp.Tests != tn.tests {
			t.Fatalf("%s: merged test set differs from local run", tn.name)
		}
	}
}

// TestServiceEvents checks the settle-event stream: every fault settles
// exactly once, and the stream terminates with Done once the job is over.
func TestServiceEvents(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 32, 1995)
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	stop := startWorkers(t, srv.URL, 2)
	defer stop()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	sub, err := cl.SubmitBench(ctx, "c432", text, JobOptions{SimInterval: intp(0)}, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	from := 0
	for {
		ev, err := cl.Events(ctx, sub.JobID, from, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ev.Events {
			if e.PatternIndex != -1 {
				t.Fatalf("settle event carries pattern index %d, want -1 (merge has not happened)", e.PatternIndex)
			}
			if e.Status == "pending" {
				t.Fatal("settle event with pending status")
			}
			seen++
		}
		from = ev.Next
		if ev.Done {
			break
		}
	}
	if seen != len(faults) {
		t.Fatalf("event stream delivered %d settles for %d faults", seen, len(faults))
	}
}

// TestServiceSubmitRejectsUnknownOption checks that a job option the
// coordinator does not know is reported, not silently dropped: a client
// still sending a removed option such as "escalate" would otherwise get a
// run other than the one it asked for.
func TestServiceSubmitRejectsUnknownOption(t *testing.T) {
	c, text := benchText(t, "c17")
	faults, err := json.Marshal(EncodeFaults(c, paths.SampleFaults(c, 4, 1995)))
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	bench, err := json.Marshal(text)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(options string) *httptest.ResponseRecorder {
		body := `{"circuit_bench":` + string(bench) + `,"options":` + options + `,"faults":` + string(faults) + `}`
		rec := httptest.NewRecorder()
		co.ServeHTTP(rec, httptest.NewRequest("POST", API+"/jobs", strings.NewReader(body)))
		return rec
	}

	rec := submit(`{"escalate":8}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("submit with an unknown option: HTTP %d, want 400", rec.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "bad-request" || !strings.Contains(e.Error, `"escalate"`) {
		t.Errorf("error = %+v, want code bad-request naming the field \"escalate\"", e)
	}
	if rec := submit(`{"word_width":8}`); rec.Code >= 300 {
		t.Errorf("submit with known options: HTTP %d: %s", rec.Code, rec.Body)
	}
}
