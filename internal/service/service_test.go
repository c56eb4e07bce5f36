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
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/pattern"
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

// decoded decodes a job's results against the fault list it submitted:
// one result per fault, in fault order.
func decoded(t testing.TB, faults []paths.Fault, resp ResultsResponse) []core.FaultResult {
	t.Helper()
	results, err := resp.Results.DecodeFinal(faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(faults) {
		t.Fatalf("%d results for %d faults", len(results), len(faults))
	}
	return results
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
func classOf(status core.Status) string {
	if status.Detected() {
		return "detected"
	}
	return status.String()
}

func intp(v int) *int { return &v }

// sameOutcomes returns the outcome columns of n faults that all had outcome
// o.
func sameOutcomes(n int, o core.RemoteOutcome) OutcomeColumns {
	outs := make([]core.RemoteOutcome, n)
	for i := range outs {
		outs[i] = o
	}
	return outcomeColumns(outs)
}

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
			simOn := tc.sim == nil
			for i, r := range decoded(t, faults, resp) {
				want := localResults[i].Status
				if simOn {
					if classOf(r.Status) != classOf(want) {
						t.Fatalf("fault %d (%s): coverage class %s, local %s", i, faults[i].Describe(c), r.Status, want)
					}
					continue
				}
				if r.Status != want {
					t.Fatalf("fault %d (%s): status %s, local %s", i, faults[i].Describe(c), r.Status, want)
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

// TestServiceQueuedCancelTally cancels a job while it waits for a
// generation slot.  Its run dispatches nothing and returns every fault
// Aborted with the cancellation cause, and its statistics count them as a
// local run canceled before it started does: Faults == Aborted == n.
func TestServiceQueuedCancelTally(t *testing.T) {
	ctx := budget(t)
	_, url := loopback(t, Config{MaxActive: 1}, nil)
	cl := NewClient(url)
	// No worker is attached, so the first job holds the only slot.
	first := submitC17(ctx, t, cl, 3)
	if st, err := cl.statusWait(ctx, first.JobID, stateQueued, longPollWait); err != nil || st.State != stateRunning {
		t.Fatalf("first job: %+v, %v; want running", st, err)
	}
	const n = 5
	second := submitC17(ctx, t, cl, n)
	if st, err := cl.Status(ctx, second.JobID); err != nil || st.State != stateQueued {
		t.Fatalf("second job: %+v, %v; want queued", st, err)
	}
	if _, err := cl.Cancel(ctx, second.JobID); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Wait(ctx, second.JobID); err != nil || st.State != stateCanceled {
		t.Fatalf("canceled job: %+v, %v; want canceled", st, err)
	}
	resp, err := cl.Results(ctx, second.JobID)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := benchText(t, "c17")
	results := decoded(t, paths.SampleFaults(c, n, 1995), resp)
	for i, r := range results {
		if r.Status != core.Aborted || r.Err == nil {
			t.Errorf("fault %d: %s (err %v), want aborted with the cause", i, r.Status, r.Err)
		}
	}
	if s := resp.Stats; len(results) != n || s.Faults != n || s.Aborted != n {
		t.Errorf("%d results, stats faults=%d aborted=%d; want %d of each", len(results), s.Faults, s.Aborted, n)
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
		LeaseTTL: 300 * time.Millisecond,
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
	// The results carry the pass's lease counters, as the status does.
	if sc := resp.Stats.Sched; sc.Requeues != st.Requeues || sc.Leases != st.Leases || sc.Duplicates != st.Duplicates {
		t.Errorf("results' dispatch counters %+v, status leases=%d requeues=%d duplicates=%d",
			sc, st.Leases, st.Requeues, st.Duplicates)
	}
	for i, r := range decoded(t, faults, resp) {
		if want := localResults[i].Status; r.Status != want {
			t.Fatalf("fault %d: status %s, local %s (requeue changed a classification)", i, r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from local run after requeue")
	}
	// The ghost finally reports in: the pass is long gone, so the batch is
	// discarded as stale rather than applied or errored.
	late := PostResults{Worker: "ghost"}
	for _, u := range ghost.Units {
		late.Units = append(late.Units, UnitResult{ID: u.ID, Outcomes: sameOutcomes(len(u.Faults), core.RemoteOutcome{Status: core.Redundant, Phase: core.PhaseAPTPG})})
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
// carry patterns one value wider than the circuit has inputs.  The batch
// must be refused whole with 400 before anything is applied or journaled —
// the merge would otherwise absorb patterns no simulation of the test set
// can load — and the job must still end byte-identical to a local run once
// the refused units' leases expire and a real worker processes them.
func TestServiceRejectsWrongWidthPattern(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{SimInterval: intp(0), Compact: "reverse"}
	localResults, localTests, _ := localRun(t, c, opts, faults)

	co, err := NewCoordinator(Config{
		LeaseTTL: 300 * time.Millisecond,
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
	wide, err := pattern.ParsePair(strings.Repeat("0", n) + " -> " + strings.Repeat("1", n))
	if err != nil {
		t.Fatal(err)
	}
	post := PostResults{Worker: "wide"}
	for _, u := range lease.Units {
		post.Units = append(post.Units, UnitResult{ID: u.ID, Outcomes: sameOutcomes(len(u.Faults), core.RemoteOutcome{Status: core.Tested, Phase: core.PhaseFPTPG, Test: wide})})
	}
	_, err = cl.PostUnitResults(ctx, sub.JobID, post)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad-unit" {
		t.Fatalf("posting wrong-width patterns: err = %v, want 400 bad-unit", err)
	}
	if st, err := cl.Status(ctx, sub.JobID); err != nil || st.Settled != 0 {
		t.Fatalf("after the refused batch: settled %d (err %v), want 0", st.Settled, err)
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
	for i, r := range decoded(t, faults, resp) {
		if want := localResults[i].Status; r.Status != want {
			t.Fatalf("fault %d: status %s, local %s", i, r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from local run after the refused batch")
	}
}

// TestServiceRefusesMalformedColumns posts a lease's two units, the first
// well formed and the second broken in one way each time: columns that
// disagree in length with each other or with the unit, an unknown status or
// phase code, a tests column that does not hold one pattern per Tested
// fault, a raws column that is neither empty nor one per Tested fault, and
// a pattern that does not parse or has the wrong width.  Each post is
// refused whole with 400 bad-unit: no unit completes, no fault settles and
// nothing is journaled.  The well-formed post then completes both units.
func TestServiceRefusesMalformedColumns(t *testing.T) {
	ctx := budget(t)
	dir := t.TempDir()
	_, url := loopback(t, Config{LedgerDir: dir}, nil)
	cl := NewClient(url)
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{WordWidth: 8, SimInterval: intp(0)}
	sub, err := cl.SubmitBench(ctx, "c432", text, opts, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	w := newCrank(t, cl, "w", c, opts)
	lease, ok := w.lease(ctx, true)
	if !ok || len(lease.Units) != 2 {
		t.Fatalf("lease of %d units (ok %v), want 2", len(lease.Units), ok)
	}
	valid := w.process(ctx, lease)
	// Break the unit that tests the most faults.
	if len(valid.Units[0].Outcomes.Tests) > len(valid.Units[1].Outcomes.Tests) {
		valid.Units[0], valid.Units[1] = valid.Units[1], valid.Units[0]
	}
	if n := len(valid.Units[1].Outcomes.Tests); n < 2 {
		t.Fatalf("the unit to break tests %d faults, want 2 or more; pick another sample", n)
	}
	n := len(c.Inputs())
	wide := strings.Repeat("0", n+1) + " -> " + strings.Repeat("1", n+1)
	for _, tc := range []struct {
		name   string
		mangle func(oc *OutcomeColumns)
	}{
		{"status short", func(oc *OutcomeColumns) { oc.Status = oc.Status[1:] }},
		{"phase long", func(oc *OutcomeColumns) { oc.Phase += "n" }},
		{"decisions short", func(oc *OutcomeColumns) { oc.Decisions = oc.Decisions[1:] }},
		{"backtracks long", func(oc *OutcomeColumns) { oc.Backtracks = append(oc.Backtracks, 0) }},
		{"every column short of the unit", func(oc *OutcomeColumns) {
			k := strings.IndexByte(oc.Status, 't')
			oc.Status, oc.Phase = oc.Status[:k]+oc.Status[k+1:], oc.Phase[:k]+oc.Phase[k+1:]
			oc.Decisions = append(oc.Decisions[:k:k], oc.Decisions[k+1:]...)
			oc.Backtracks = append(oc.Backtracks[:k:k], oc.Backtracks[k+1:]...)
			oc.Tests = oc.Tests[1:]
		}},
		{"unknown status code", func(oc *OutcomeColumns) { oc.Status = "x" + oc.Status[1:] }},
		{"unknown phase code", func(oc *OutcomeColumns) { oc.Phase = oc.Phase[:1] + "P" + oc.Phase[2:] }},
		{"tests short", func(oc *OutcomeColumns) { oc.Tests = oc.Tests[1:] }},
		{"tests long", func(oc *OutcomeColumns) { oc.Tests = append(oc.Tests, oc.Tests[0]) }},
		{"raws short", func(oc *OutcomeColumns) { oc.Raws = oc.Tests[1:] }},
		{"raws long", func(oc *OutcomeColumns) { oc.Raws = append(slices.Clone(oc.Tests), oc.Tests[0]) }},
		{"test does not parse", func(oc *OutcomeColumns) { oc.Tests[len(oc.Tests)-1] = "01 -> 1z" }},
		{"raw does not parse", func(oc *OutcomeColumns) { oc.Raws = slices.Clone(oc.Tests); oc.Raws[0] = "0 1" }},
		{"test too wide", func(oc *OutcomeColumns) { oc.Tests[0] = wide }},
		{"raw too wide", func(oc *OutcomeColumns) { oc.Raws = slices.Clone(oc.Tests); oc.Raws[1] = wide }},
	} {
		post := valid
		post.Units = slices.Clone(valid.Units)
		oc := valid.Units[1].Outcomes
		oc.Decisions, oc.Backtracks, oc.Tests = slices.Clone(oc.Decisions), slices.Clone(oc.Backtracks), slices.Clone(oc.Tests)
		tc.mangle(&oc)
		post.Units[1].Outcomes = oc
		journaled := ledgerSizes(t, dir)
		_, err := cl.PostUnitResults(ctx, sub.JobID, post)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad-unit" {
			t.Errorf("%s: err = %v, want 400 bad-unit", tc.name, err)
		}
		if st, err := cl.Status(ctx, sub.JobID); err != nil || st.Settled != 0 {
			t.Fatalf("%s: settled %d (err %v), want 0", tc.name, st.Settled, err)
		}
		if got := ledgerSizes(t, dir); !maps.Equal(got, journaled) {
			t.Fatalf("%s: the refused post was journaled: ledger %v, before %v", tc.name, got, journaled)
		}
	}
	if resp, err := cl.PostUnitResults(ctx, sub.JobID, valid); err != nil || resp.Stale {
		t.Fatalf("the well-formed post: stale %v, err %v", resp.Stale, err)
	}
	st, err := cl.Status(ctx, sub.JobID)
	if want := len(lease.Units[0].Faults) + len(lease.Units[1].Faults); err != nil || st.Settled != want || st.Duplicates != 0 {
		t.Fatalf("after the well-formed post: settled %d, duplicates %d (err %v); want %d and 0", st.Settled, st.Duplicates, err, want)
	}
}

// TestServiceFinishedJobFreesRun: a finished job lets go of its run (the
// master generator's implication state, simulator, records and test set),
// of the faults its leases carried and of its pattern exchange, and still
// serves its results and every page of its settle events.  One job runs
// with the simulation off and must match a local run; one runs with it on,
// so tested outcomes reach its exchange.
func TestServiceFinishedJobFreesRun(t *testing.T) {
	ctx := budget(t)
	co, url := loopback(t, Config{}, nil)
	stop := startWorkers(t, url, 2)
	defer stop()
	cl := NewClient(url)
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	for _, opts := range []JobOptions{
		{SimInterval: intp(0), Compact: "reverse"},
		{SimInterval: intp(8), Compact: "reverse"},
	} {
		simOn := *opts.SimInterval > 0
		sub, err := cl.SubmitBench(ctx, "c432", text, opts, EncodeFaults(c, faults))
		if err != nil {
			t.Fatal(err)
		}
		if st, err := cl.Wait(ctx, sub.JobID); err != nil || st.State != stateDone {
			t.Fatalf("job ended %+v, %v; want done", st, err)
		}
		j := co.job(sub.JobID)
		j.mu.Lock()
		rr, wireFaults, exch := j.rr, j.wireFaults, j.exch
		j.mu.Unlock()
		if rr != nil || wireFaults != nil {
			t.Fatalf("sim %v: the finished job holds its run (%v) or its %d wire faults", simOn, rr != nil, len(wireFaults))
		}
		if exch.buf != nil || exch.cursors != nil {
			t.Fatalf("sim %v: the finished job holds %d exchanged tests and %d cursors", simOn, len(exch.buf), len(exch.cursors))
		}

		resp, err := cl.Results(ctx, sub.JobID)
		if err != nil {
			t.Fatal(err)
		}
		results := decoded(t, faults, resp)
		if simOn {
			// Which faults the simulation drops depends on when each
			// worker's tests arrive, so only a tested fault is asked for:
			// its test went through the exchange.
			if !slices.ContainsFunc(results, func(r core.FaultResult) bool { return r.Status == core.Tested }) {
				t.Fatal("sim on: no fault was tested, so nothing reached the exchange")
			}
		} else {
			local, localTests, _ := localRun(t, c, opts, faults)
			for i, r := range results {
				if r.Status != local[i].Status || r.PatternIndex != local[i].PatternIndex {
					t.Fatalf("fault %d: %s at pattern %d, local %s at %d", i, r.Status, r.PatternIndex, local[i].Status, local[i].PatternIndex)
				}
			}
			if resp.Tests != localTests {
				t.Fatal("merged test set differs from the local run")
			}
		}
		seen := make([]bool, len(faults))
		for page, err := range cl.Follow(ctx, sub.JobID) {
			if err != nil {
				t.Fatal(err)
			}
			rows, err := page.DecodePage(faults)
			if err != nil {
				t.Fatal(err)
			}
			for k := range rows {
				fi := page.Index[k]
				if seen[fi] {
					t.Fatalf("sim %v: fault %d settled twice", simOn, fi)
				}
				if !simOn && rows[k].Status != results[fi].Status {
					t.Fatalf("event of fault %d: %s, final %s", fi, rows[k].Status, results[fi].Status)
				}
				seen[fi] = true
			}
		}
		if i := slices.Index(seen, false); i >= 0 {
			t.Fatalf("sim %v: the event feed never settled fault %d", simOn, i)
		}
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
		LedgerDir: dir,
		LeaseTTL:  300 * time.Millisecond,
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
	post := PostResults{Worker: "big"}
	for _, u := range granted.Units {
		post.Units = append(post.Units, UnitResult{ID: u.ID, Outcomes: sameOutcomes(len(u.Faults), core.RemoteOutcome{Status: core.Aborted, Phase: core.PhaseAPTPG})})
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
	for i, r := range decoded(t, faults, resp) {
		if want := localResults[i].Status; r.Status != want {
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
	for i, r := range decoded(t, faults, resp) {
		if r.Status == core.Pending {
			t.Fatalf("fault %s left pending after cancel", faults[i].Describe(c))
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
		for i, r := range decoded(t, tn.faults, resp) {
			if want := tn.results[i].Status; r.Status != want {
				t.Fatalf("%s fault %d: status %s, local %s", tn.name, i, r.Status, want)
			}
		}
		if resp.Tests != tn.tests {
			t.Fatalf("%s: merged test set differs from local run", tn.name)
		}
	}
}

// TestServiceEvents checks the settle-event stream: every fault settles
// exactly once, under its index in the submitted list and with the status
// the final results give it (the simulation is off), and the stream
// terminates with Done once the job is over.
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
	settled := make(map[int]core.Status)
	for {
		ev, err := cl.Events(ctx, sub.JobID, from, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		events, err := ev.Events.DecodePage(faults)
		if err != nil {
			t.Fatal(err)
		}
		for k, e := range events {
			i := ev.Events.Index[k]
			if _, dup := settled[i]; dup {
				t.Fatalf("settle event with index %d repeated", i)
			}
			settled[i] = e.Status
			if e.PatternIndex != -1 {
				t.Fatalf("settle event carries pattern index %d, want -1 (merge has not happened)", e.PatternIndex)
			}
			if e.Status == core.Pending {
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
	resp, err := cl.Results(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range decoded(t, faults, resp) {
		if settled[i] != r.Status {
			t.Errorf("fault %d settled as %s, final status %s", i, settled[i], r.Status)
		}
	}
}

// rawSubmitter returns a function that submits a c17 job with the given
// options object, as raw JSON, to a fresh coordinator.
func rawSubmitter(t *testing.T) func(options string) *httptest.ResponseRecorder {
	t.Helper()
	c, text := benchText(t, "c17")
	faults, err := json.Marshal(EncodeFaults(c, paths.SampleFaults(c, 4, 1995)))
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	bench, err := json.Marshal(text)
	if err != nil {
		t.Fatal(err)
	}
	return func(options string) *httptest.ResponseRecorder {
		body := `{"circuit_bench":` + string(bench) + `,"options":` + options + `,"faults":` + string(faults) + `}`
		rec := httptest.NewRecorder()
		co.ServeHTTP(rec, httptest.NewRequest("POST", API+"/jobs", strings.NewReader(body)))
		return rec
	}
}

// TestServiceSubmitRejectsUnknownOption checks that a job option the
// coordinator does not know is reported, not silently dropped: a client
// still sending a removed option such as "escalate" would otherwise get a
// run other than the one it asked for.
func TestServiceSubmitRejectsUnknownOption(t *testing.T) {
	submit := rawSubmitter(t)
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

// TestServiceSubmitRejectsOutOfRangeWidth checks the wire's width bound: a
// submit asking for a word width above core.MaxWordWidth gets HTTP 400 with
// an error naming the range, and the widest legal width is accepted.
func TestServiceSubmitRejectsOutOfRangeWidth(t *testing.T) {
	submit := rawSubmitter(t)
	rec := submit(`{"word_width":129}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("submit with word width 129: HTTP %d, want 400", rec.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "bad-options" || !strings.Contains(e.Error, "1..128") {
		t.Errorf("error = %+v, want code bad-options naming the range 1..128", e)
	}
	if rec := submit(`{"word_width":128}`); rec.Code >= 300 {
		t.Errorf("submit with word width 128: HTTP %d: %s", rec.Code, rec.Body)
	}
}
