package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/paths"
)

// TestServiceChaosEndToEnd is the harness proving the resilience layer's
// central claim: a distributed run under injected faults — dropped requests,
// severed responses, synthetic 503s, added latency on every worker, plus a
// lease-expiry storm and torn ledger appends on the coordinator — still
// produces statuses, pattern indices and a merged test set byte-identical
// to an undisturbed single-process run.  The injector counters are asserted so a mis-wired
// failpoint cannot pass as "survived".
func TestServiceChaosEndToEnd(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0), Compact: "reverse"}
	localResults, localTests, _ := localRun(t, c, opts, faults)

	coChaos := chaos.New(chaos.Config{Seed: 11, StormAfter: 5, StormSkew: time.Minute, Tear: 0.25})
	co, err := NewCoordinator(Config{
		LeaseTTL:  2 * time.Second,
		LedgerDir: t.TempDir(),
		Chaos:     coChaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()

	wkChaos := chaos.New(chaos.Config{
		Seed: 7, Drop: 0.15, Sever: 0.1, Unavail: 0.05,
		DelayP: 0.2, Delay: 5 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	workers := make([]*Worker, 2)
	for i := range workers {
		wk := NewWorker(WorkerConfig{
			Coordinator: srv.URL,
			ID:          "w" + string(rune('1'+i)),
			Transport:   wkChaos.Transport(nil),
		})
		workers[i] = wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(ctx)
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	cl := NewClient(srv.URL)
	sub, err := cl.SubmitBench(context.Background(), "c432", text, opts, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(context.Background(), sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != stateDone {
		t.Fatalf("chaotic job finished in state %q", st.State)
	}

	resp, err := cl.Results(context.Background(), sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range decoded(t, faults, resp) {
		if want := localResults[i].Status; r.Status != want {
			t.Fatalf("fault %d (%s): status %s under chaos, local %s", i, faults[i].Describe(c), r.Status, want)
		}
		if r.PatternIndex != localResults[i].PatternIndex {
			t.Fatalf("fault %d: pattern index %d under chaos, local %d",
				i, r.PatternIndex, localResults[i].PatternIndex)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set under chaos differs from the undisturbed local run")
	}

	// The faults must actually have fired, and the workers must have worked.
	ws := wkChaos.Stats()
	if ws.Dropped == 0 || ws.Severed == 0 {
		t.Errorf("injector idle: %+v (dropped and severed must both fire)", ws)
	}
	if cs := coChaos.Stats(); cs.Storms != 1 {
		t.Errorf("lease-expiry storm fired %d times, want exactly 1", cs.Storms)
	}
	var leases, units int64
	for _, wk := range workers {
		cnt := wk.Counters()
		leases += cnt.Leases
		units += cnt.Units
	}
	if leases == 0 || units < int64(len(faults)) {
		t.Errorf("workers leased %d batches / processed %d units, want >0 and >=%d", leases, units, len(faults))
	}
}

// TestServiceLedgerReplayFirstCompletions interrupts a job after 12 units
// and resumes it from a journal that also holds what no clean run journals:
// a unit's completion recorded twice, as a worker retrying a severed post
// might leave it, or the debris of torn appends, one sealed by a later
// append and one left as the unterminated tail.  Exactly the 12 recorded
// units replay, none re-dispatched and none doubled, and the finished job
// matches the uninterrupted run bit for bit.
func TestServiceLedgerReplayFirstCompletions(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0), Compact: "reverse"}
	local, localTests, _ := localRun(t, c, opts, faults)
	const preCrash = 12
	for _, tc := range []struct {
		name       string
		plant      func(unitLine string) string // what to append to the journal
		duplicates int
	}{
		{"duplicate", func(l string) string { return l + "\n" }, 1},
		{"debris", func(l string) string { return l[:len(l)/2] + "\n" + l[:len(l)/3] }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			coA, err := NewCoordinator(Config{LedgerDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			srvA := httptest.NewServer(coA)
			clA := NewClient(srvA.URL)
			sub, err := clA.SubmitBench(ctx, "c432", text, opts, EncodeFaults(c, faults))
			if err != nil {
				t.Fatal(err)
			}
			driveWorker(t, clA, "wA", sub.JobID, c, preCrash)
			srvA.Close()
			coA.Close()

			path := filepath.Join(dir, sub.JobID+".jsonl")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var unitLine string
			for _, line := range strings.Split(string(raw), "\n") {
				if strings.HasPrefix(line, `{"t":"unit"`) {
					unitLine = line
					break
				}
			}
			if unitLine == "" {
				t.Fatal("no unit record in the ledger after 12 completions")
			}
			if err := os.WriteFile(path, append(raw, tc.plant(unitLine)...), 0o644); err != nil {
				t.Fatal(err)
			}

			st, resp, processed := resumeToEnd(t, dir, c)
			if st.Replayed != preCrash || st.Duplicates != tc.duplicates {
				t.Fatalf("replayed %d units with %d duplicates, want %d and %d", st.Replayed, st.Duplicates, preCrash, tc.duplicates)
			}
			if got, want := len(processed), len(faults)-preCrash; got != want {
				t.Fatalf("worker processed %d units after resume, want %d", got, want)
			}
			for i, r := range decoded(t, faults, resp) {
				l := local[i]
				if r.Status != l.Status || r.Phase != l.Phase || r.PatternIndex != l.PatternIndex {
					t.Fatalf("fault %d (%s): %s in %s at pattern %d, local %s in %s at %d",
						i, faults[i].Describe(c), r.Status, r.Phase, r.PatternIndex, l.Status, l.Phase, l.PatternIndex)
				}
			}
			if resp.Tests != localTests {
				t.Fatal("merged test set differs from the uninterrupted run")
			}
		})
	}
}

// TestLedgerCompactTerminalStub: a finished job's journal is compacted to
// its two-line stub, the job record's identity and format version and then
// the terminal state with its reason, which is all resume reads of it.  The
// stub is written whole even when every append would tear, and no file but
// the journal is left behind.
func TestLedgerCompactTerminalStub(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir, "j1")
	if err != nil {
		t.Fatal(err)
	}
	l.RecordJob("j1", "c17", "deadbeef", "INPUT(a)\n", JobOptions{}, []WireFault{"rising a"})
	l.RecordUnit(0, "wA", nil)
	l.SetChaos(chaos.New(chaos.Config{Seed: 1, Tear: 1}))
	l.Finish("j1", "c17", stateFailed, "the merged set does not simulate")
	l.RecordUnit(1, "wA", nil) // after the end: dropped
	l.Close()

	raw, err := os.ReadFile(filepath.Join(dir, "j1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"t":"job","version":%d,"id":"j1","name":"c17"}`+"\n"+
		`{"t":"state","state":"failed","error":"the merged set does not simulate"}`+"\n", ledgerVersion)
	if string(raw) != want {
		t.Fatalf("journal after Finish:\n%s\nwant the stub\n%s", raw, want)
	}
	if names := ledgerSizes(t, dir); len(names) != 1 {
		t.Fatalf("ledger directory holds %v, want the journal alone", names)
	}
}

// TestLedgerTornTailResync is the crash-mid-append regression test: debris
// without a trailing newline must not swallow the next record appended after
// reopen (the pre-fix behavior concatenated them into one unparseable line).
func TestLedgerTornTailResync(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir, "torn")
	if err != nil {
		t.Fatal(err)
	}
	l.RecordJob("torn", "c17", "", "", JobOptions{}, nil)
	l.Close()

	// Crash mid-append: half a record, no newline.
	path := filepath.Join(dir, "torn.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"unit","un`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err = OpenLedger(dir, "torn")
	if err != nil {
		t.Fatal(err)
	}
	l.RecordUnit(0, "wA", nil)
	l.Close()

	lj, err := loadLedgerFile(path)
	if err != nil || lj == nil {
		t.Fatalf("resynced ledger unreadable: %v", err)
	}
	if lj.Err != nil {
		t.Fatalf("sealed torn line reported as a record that does not decode: %v", lj.Err)
	}
	if len(lj.Units) != 1 {
		t.Fatal("record appended after a torn tail was lost (concatenated onto the debris)")
	}
}

// TestLedgerChaosTornWrites drives appends through the injector's torn-write
// failpoint: whatever survives must parse cleanly, be a subset of what was
// written, and the journal must accept clean appends afterwards.
func TestLedgerChaosTornWrites(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir, "chaotic")
	if err != nil {
		t.Fatal(err)
	}
	l.RecordJob("chaotic", "c17", "", "", JobOptions{}, nil)

	inj := chaos.New(chaos.Config{Seed: 3, Tear: 0.5})
	l.SetChaos(inj)
	const writes = 40
	for u := 0; u < writes; u++ {
		l.RecordUnit(u, "wA", nil)
	}
	l.SetChaos(nil)
	l.RecordState(stateDone, "") // clean append after the carnage
	l.Close()

	if torn := inj.Stats().Torn; torn == 0 {
		t.Fatal("tear failpoint never fired at probability 0.5 over 40 writes")
	}
	lj, err := loadLedgerFile(filepath.Join(dir, "chaotic.jsonl"))
	if err != nil || lj == nil {
		t.Fatalf("chaotic ledger unreadable: %v", err)
	}
	if lj.Err != nil {
		t.Fatalf("sealed torn writes reported as records that do not decode: %v", lj.Err)
	}
	seen := make(map[int]bool)
	for _, u := range lj.Units {
		if u.Unit < 0 || u.Unit >= writes || seen[u.Unit] {
			t.Fatalf("unit %d surfaced corrupt or doubled from torn writes", u.Unit)
		}
		seen[u.Unit] = true
	}
	if len(lj.Units) == writes {
		t.Fatal("no unit record was lost despite torn writes — failpoint not on the write path")
	}
	if lj.State != stateDone {
		t.Fatal("clean append after torn writes was lost (tail never resealed)")
	}
}

// TestWorkerBackoffCounters: a worker facing a dead coordinator counts its
// failed lease round trips and backs off from the error floor up to the cap;
// an idle worker on an empty coordinator parks its lease for the whole wait
// window, so over a time T it sends at most ⌈T/window⌉+1 lease requests and
// counts no lease error — not even for the call its own shutdown cuts short.
func TestWorkerBackoffCounters(t *testing.T) {
	// Dead coordinator: the URL refuses connections immediately.
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	ctx, cancel := context.WithCancel(context.Background())
	wk := NewWorker(WorkerConfig{Coordinator: deadURL, ID: "dead"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = wk.Run(ctx)
	}()
	deadline := time.Now().Add(15 * time.Second)
	sawFirst := false
	for {
		cnt := wk.Counters()
		if cnt.LeaseErrors == 1 && !sawFirst {
			sawFirst = true
			if cnt.Backoff != errBackoffFloor {
				t.Errorf("first error backoff %v, want the %v floor", cnt.Backoff, errBackoffFloor)
			}
		}
		if cnt.LeaseErrors >= 2 {
			if cnt.Backoff < errBackoffFloor || cnt.Backoff > errBackoffCap {
				t.Errorf("error backoff %v outside [%v, %v]", cnt.Backoff, errBackoffFloor, errBackoffCap)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never counted 2 lease errors against a dead coordinator: %+v", cnt)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawFirst {
		t.Error("never observed the first lease error alone")
	}
	cancel()
	<-done

	// Idle coordinator: count the lease requests that reach it.
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == API+"/lease" {
			requests.Add(1)
		}
		co.ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	wk = NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "idle"})
	done = make(chan struct{})
	go func() {
		defer close(done)
		_ = wk.Run(ctx)
	}()
	const idle = time.Second
	time.Sleep(idle)
	cancel()
	<-done
	limit := int64(math.Ceil(float64(idle)/float64(longPollWait))) + 1
	if n := requests.Load(); n < 1 || n > limit {
		t.Errorf("idle worker sent %d lease requests in %v, want 1..%d", n, idle, limit)
	}
	if cnt := wk.Counters(); cnt.LeaseErrors != 0 || cnt.Backoff != 0 {
		t.Errorf("idle worker counted %d lease errors, backoff %v", cnt.LeaseErrors, cnt.Backoff)
	}
}

// FuzzLedgerLoad throws arbitrary bytes at the journal loader, then
// appends two completions of one unit through the Ledger, as a resumed job
// appends to its journal, and loads it again.  Loading never panics.  A
// journal that loads (at j.jsonl, a job record of this format version that
// names job j or none, every complete line a record or sealed debris) and
// ends as an append leaves it (on a
// newline, a record or a torn prefix of one) loads again with the units it
// held, in journal order, and then the two appended: replay, which applies
// each unit's first completion, sees the first recorded completion of
// every unit, and the appended unit's second completion is a duplicate.
func FuzzLedgerLoad(f *testing.F) {
	f.Add([]byte(`{"t":"job","version":3,"id":"j","name":"c17","bench":"INPUT(a)\n"}
{"t":"unit","unit":0,"worker":"wA","outcomes":{"status":"t","phase":"f","decisions":[0],"backtracks":[0],"tests":["0 -> 1"],"raws":["x -> 1"]}}
{"t":"unit","unit":0,"worker":"wB"}
{"t":"unit","unit":1,"worker":"wA","outcomes":{"status":"r","phase":"a","decisions":[2],"backtracks":[1],"tests":[]}}
`))
	f.Add([]byte(`{"t":"job","version":3,"id":"j","name":"c17"}
{"t":"state","state":"done"}
`))
	f.Add([]byte(`{"t":"job","version":3,"id":"j"}
{"t":"unit","un`)) // torn tail
	f.Add([]byte("\n\ngarbage not json\n{\"t\":\"job\",\"version\":3,\"id\":\"j\"}\n"))
	f.Add([]byte(`{"t":"job","id":"j"}
{"t":"unit","unit":0,"worker":"wA"}
`)) // no format version
	f.Add([]byte(`{"t":"job","version":1,"id":"j"}
{"t":"unit","unit":0,"worker":"wA","outcomes":[{"status":"tested","test":"0 -> 1"}]}
`)) // format version 1: one object per outcome
	f.Add([]byte(`{"t":"job","version":2,"id":"j"}
{"t":"pass","spec":{"width":1,"budget":8},"units":[[0],[1]]}
{"t":"unit","unit":1,"worker":"wA","outcomes":{"status":"r","phase":"f","decisions":[0],"backtracks":[0]}}
`)) // format version 2: the unit cut in a pass record
	f.Add([]byte(`{"t":"job","version":3,"id":"j"}
{"t":"unit","unit":2,"wor
{"t":"unit","unit":2,"worker":"wA"}
{"t":"unit","unit":0,"worker":"wB"}`)) // sealed debris, and a last record without its newline
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lj, err := loadLedgerFile(path)
		if err != nil || lj == nil || lj.Err != nil {
			return // not a journal this build resumes
		}
		var rec ledgerRecord
		if tail := bytes.TrimSpace(data[bytes.LastIndexByte(data, '\n')+1:]); len(tail) > 0 && !truncated(tail) && json.Unmarshal(tail, &rec) != nil {
			return // an unterminated tail no append leaves: sealed, it would not decode
		}

		l, err := OpenLedger(dir, "j")
		if err != nil {
			t.Fatal(err)
		}
		first := OutcomeColumns{Status: "t", Phase: "f", Decisions: []int{1}, Backtracks: []int{0}, Tests: []string{"0 -> 1"}}
		again := OutcomeColumns{Status: "a", Phase: "a", Decisions: []int{9}, Backtracks: []int{8}}
		l.RecordUnit(7, "first", &first)
		l.RecordUnit(7, "again", &again)
		l.Close()

		lj2, err := loadLedgerFile(path)
		if err != nil || lj2 == nil || lj2.Err != nil {
			t.Fatalf("journal no longer loads after two appends: %v %+v", err, lj2)
		}
		if lj2.ID != lj.ID || lj2.State != lj.State || lj2.Bench != lj.Bench {
			t.Fatalf("appends changed the job: %+v, was %+v", lj2, lj)
		}
		want := append(slices.Clone(lj.Units), LedgerUnit{7, "first", first}, LedgerUnit{7, "again", again})
		if !reflect.DeepEqual(lj2.Units, want) {
			t.Fatalf("units after two appends:\n%+v\nwant\n%+v", lj2.Units, want)
		}
	})
}
