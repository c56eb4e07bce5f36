package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/pattern"
)

// crank is a hand-cranked worker: it leases when told to, runs the leased
// units through its own generator with the foreign patterns the lease
// carries, as Worker does, and posts the outcomes when told to.  driveWorker
// runs its units through it too.
type crank struct {
	t   *testing.T
	cl  *Client
	id  string
	gen *core.Generator
}

func newCrank(t *testing.T, cl *Client, id string, c *circuit.Circuit, opts JobOptions) *crank {
	t.Helper()
	coreOpts, err := opts.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	return &crank{t: t, cl: cl, id: id, gen: core.New(c, coreOpts)}
}

// lease asks for up to two units, waiting for one when wait is set.
func (w *crank) lease(ctx context.Context, wait bool) (LeaseResponse, bool) {
	w.t.Helper()
	d := longPollWait
	if !wait {
		d = 0
	}
	l, ok, err := w.cl.Lease(ctx, w.id, 2, d)
	if err != nil {
		w.t.Fatal(err)
	}
	return l, ok
}

// process runs the leased units and returns the batch to post.
func (w *crank) process(ctx context.Context, l LeaseResponse) PostResults {
	w.t.Helper()
	var foreign []pattern.Pair
	for _, s := range l.Patterns {
		p, err := pattern.ParsePair(s)
		if err != nil {
			w.t.Fatalf("lease carries pattern %q: %v", s, err)
		}
		foreign = append(foreign, p)
	}
	post := PostResults{Worker: w.id}
	for _, u := range l.Units {
		faults, err := DecodeFaults(w.gen.Circuit(), u.Faults)
		if err != nil {
			w.t.Fatalf("lease carries unit %d: %v", u.ID, err)
		}
		outs, effort := w.gen.ProcessRemoteUnit(ctx, faults, foreign)
		foreign = nil
		post.Units = append(post.Units, UnitResult{ID: u.ID, Outcomes: outcomeColumns(outs)})
		post.Effort.Add(effort)
	}
	return post
}

func (w *crank) post(ctx context.Context, jobID string, p PostResults) {
	w.t.Helper()
	resp, err := w.cl.PostUnitResults(ctx, jobID, p)
	if err != nil || resp.Stale {
		w.t.Fatalf("worker %s posting %d units: stale %v, err %v", w.id, len(p.Units), resp.Stale, err)
	}
}

// exchangeModel is what the exchange must hold: the tests of the tested
// outcomes of every first completion, in the order they were applied, and
// each worker's position in them.
type exchangeModel struct {
	log     []exchanged
	cursors map[string]int
}

// applied records the tested outcomes of a batch that completed its units
// for the first time.
func (m *exchangeModel) applied(p PostResults) {
	for _, ur := range p.Units {
		for _, test := range ur.Outcomes.Tests {
			m.log = append(m.log, exchanged{p.Worker, test})
		}
	}
}

// since returns the tests the next lease of worker must carry.
func (m *exchangeModel) since(worker string) []string {
	if m.cursors == nil {
		m.cursors = make(map[string]int)
	}
	var out []string
	for _, e := range m.log[m.cursors[worker]:] {
		if e.worker != worker {
			out = append(out, e.test)
		}
	}
	m.cursors[worker] = len(m.log)
	return out
}

// TestServiceExchangeOnLease drives the cross-worker pattern exchange by
// hand.  On a job that simulates, each lease reply carries exactly the
// tests of the other workers' first-applied tested outcomes since the
// worker's previous lease, each once, and a duplicate completion publishes
// nothing; the tests of the units a resumed job replays reach the next
// lease; a job that does not simulate hands out no patterns.
func TestServiceExchangeOnLease(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	simOn := JobOptions{WordWidth: 1, Compact: "reverse"} // simulation after every pattern

	// run takes turns leasing, processing and posting with the workers until
	// nothing is left to lease, checking every lease reply against want.
	// Once, after the first batch that publishes a test, that batch is
	// posted again: duplicate completions of its units.  run returns the
	// patterns the leases carried and the units completed twice.
	run := func(t *testing.T, ctx context.Context, jobID string, m *exchangeModel, want func(string) []string, workers ...*crank) (delivered, dups int) {
		t.Helper()
		for first := true; ; first = false {
			progressed := false
			for _, w := range workers {
				l, ok := w.lease(ctx, first)
				if !ok {
					continue
				}
				progressed = true
				if exp := want(w.id); !slices.Equal(l.Patterns, exp) {
					t.Fatalf("worker %s: lease carries %d patterns %q, want %d %q", w.id, len(l.Patterns), l.Patterns, len(exp), exp)
				}
				delivered += len(l.Patterns)
				p := w.process(ctx, l)
				w.post(ctx, jobID, p)
				before := len(m.log)
				m.applied(p)
				if dups == 0 && len(m.log) > before {
					w.post(ctx, jobID, p)
					dups = len(p.Units)
				}
			}
			if !progressed {
				return delivered, dups
			}
		}
	}
	finish := func(t *testing.T, ctx context.Context, cl *Client, jobID string) JobStatus {
		t.Helper()
		st, err := cl.Wait(ctx, jobID)
		if err != nil || st.State != stateDone {
			t.Fatalf("job ended %q (%s), err %v; want done", st.State, st.Error, err)
		}
		return st
	}

	t.Run("live", func(t *testing.T) {
		ctx := budget(t)
		_, url := loopback(t, Config{}, nil)
		cl := NewClient(url)
		sub, err := cl.SubmitBench(ctx, "c432", text, simOn, EncodeFaults(c, faults))
		if err != nil {
			t.Fatal(err)
		}
		var m exchangeModel
		a, b := newCrank(t, cl, "a", c, simOn), newCrank(t, cl, "b", c, simOn)
		delivered, dups := run(t, ctx, sub.JobID, &m, m.since, a, b)
		if delivered == 0 {
			t.Fatal("no lease carried a pattern: the check above proved nothing")
		}
		if st := finish(t, ctx, cl, sub.JobID); st.Duplicates != dups {
			t.Errorf("%d duplicate completions counted, want the %d posted", st.Duplicates, dups)
		}
	})

	t.Run("replayed", func(t *testing.T) {
		ctx := budget(t)
		dir := t.TempDir()
		coA, err := NewCoordinator(Config{LedgerDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srvA := httptest.NewServer(coA)
		clA := NewClient(srvA.URL)
		sub, err := clA.SubmitBench(ctx, "c432", text, simOn, EncodeFaults(c, faults))
		if err != nil {
			t.Fatal(err)
		}
		// Worker a completes six units on the first coordinator.
		var replayed exchangeModel
		a := newCrank(t, clA, "a", c, simOn)
		for i := 0; i < 3; i++ {
			l, ok := a.lease(ctx, true)
			if !ok {
				t.Fatal("no lease on the first coordinator")
			}
			p := a.process(ctx, l)
			a.post(ctx, sub.JobID, p)
			replayed.applied(p)
		}
		srvA.Close()
		coA.Close()
		if len(replayed.log) == 0 {
			t.Fatal("the recorded units test no fault; pick another sample")
		}

		// The resumed job replays them under worker a, and the next lease of
		// any other worker carries their tests.
		_, url := loopback(t, Config{LedgerDir: dir}, nil)
		cl := NewClient(url)
		m := replayed
		b, c2 := newCrank(t, cl, "b", c, simOn), newCrank(t, cl, "c", c, simOn)
		run(t, ctx, sub.JobID, &m, m.since, b, c2)
		if got := m.cursors["b"]; got < len(replayed.log) {
			t.Fatalf("worker b read %d of the %d replayed tests", got, len(replayed.log))
		}
		if st := finish(t, ctx, cl, sub.JobID); st.Replayed != 6 {
			t.Errorf("replayed %d units, want 6", st.Replayed)
		}
	})

	t.Run("sim-off", func(t *testing.T) {
		ctx := budget(t)
		_, url := loopback(t, Config{}, nil)
		cl := NewClient(url)
		simOff := JobOptions{WordWidth: 1, SimInterval: intp(0), Compact: "reverse"}
		sub, err := cl.SubmitBench(ctx, "c432", text, simOff, EncodeFaults(c, faults))
		if err != nil {
			t.Fatal(err)
		}
		var m exchangeModel
		none := func(string) []string { return nil }
		run(t, ctx, sub.JobID, &m, none, newCrank(t, cl, "a", c, simOff), newCrank(t, cl, "b", c, simOff))
		finish(t, ctx, cl, sub.JobID)
	})
}

// TestServiceExchangeBound publishes past the exchange's capacity while a
// worker holds a lease: the oldest patterns are dropped, and the worker,
// whose position fell behind them, gets on its next lease exactly the
// patterns the exchange still holds.
func TestServiceExchangeBound(t *testing.T) {
	ctx := budget(t)
	co, url := loopback(t, Config{}, nil)
	cl := NewClient(url)
	c, text := benchText(t, "c17")
	sub, err := cl.SubmitBench(ctx, "c17", text, JobOptions{WordWidth: 1}, EncodeFaults(c, paths.SampleFaults(c, 4, 1995)))
	if err != nil {
		t.Fatal(err)
	}
	if l, ok, err := cl.Lease(ctx, "a", 1, longPollWait); err != nil || !ok || len(l.Patterns) != 0 {
		t.Fatalf("first lease: ok=%v err=%v patterns=%d, want a unit and no patterns", ok, err, len(l.Patterns))
	}

	const over = 10
	var want []string
	j := co.job(sub.JobID)
	j.mu.Lock()
	for i := 0; i < exchangeCap+over; i++ {
		test := fmt.Sprintf("pattern %d", i)
		j.exch.publish("b", test)
		if i >= over {
			want = append(want, test)
		}
	}
	held, base := len(j.exch.buf), j.exch.base
	j.mu.Unlock()
	if held != exchangeCap || base != over {
		t.Fatalf("exchange holds %d patterns from position %d, want %d from %d", held, base, exchangeCap, over)
	}

	l, ok, err := cl.Lease(ctx, "a", 1, 0)
	if err != nil || !ok {
		t.Fatalf("second lease: ok=%v err=%v, want a unit", ok, err)
	}
	if !slices.Equal(l.Patterns, want) {
		t.Fatalf("second lease carries %d patterns, want the %d the exchange holds", len(l.Patterns), len(want))
	}
}
