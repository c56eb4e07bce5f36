package service

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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
	if len(resp.Results) != len(localResults) {
		t.Fatalf("got %d results under chaos, want %d", len(resp.Results), len(localResults))
	}
	for i, r := range resp.Results {
		if want := localResults[i].Status.String(); r.Status != want {
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

// TestServiceLedgerCompactionResume interrupts a job, compacts its journal
// (with a duplicated completion line planted to prove first-wins dedup), and
// resumes on the compacted file: exactly the recorded units replay — none
// re-dispatched, none dropped, none doubled — and the finished job matches
// the uninterrupted run bit for bit.
func TestServiceLedgerCompactionResume(t *testing.T) {
	dir := t.TempDir()
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0), Compact: "reverse"}
	localResults, localTests, _ := localRun(t, c, opts, faults)
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
	const preCrash = 12
	driveWorker(t, clA, "wA", sub.JobID, c, preCrash)
	srvA.Close()
	coA.Close()

	// Duplicate a completed unit's line, as a worker retrying a severed POST
	// would: compaction must keep only the first completion.
	path := filepath.Join(dir, sub.JobID+".jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dupLine string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, `{"t":"unit"`) {
			dupLine = line
			break
		}
	}
	if dupLine == "" {
		t.Fatal("no unit record in the ledger after 12 completions")
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(dupLine + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before, after, err := CompactLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", before, after)
	}
	lj, err := loadLedgerFile(path)
	if err != nil || lj == nil {
		t.Fatalf("compacted ledger unreadable: %v", err)
	}
	seen := make(map[int]bool)
	for _, u := range lj.Units {
		if seen[u.Unit] {
			t.Fatalf("unit %d recorded twice after compaction", u.Unit)
		}
		seen[u.Unit] = true
	}

	coB, err := NewCoordinator(Config{LedgerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer coB.Close()
	srvB := httptest.NewServer(coB)
	defer srvB.Close()
	clB := NewClient(srvB.URL)
	processed := driveWorker(t, clB, "wB", sub.JobID, c, 1<<30)
	st, err := clB.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != stateDone {
		t.Fatalf("resumed job finished in state %q", st.State)
	}
	if st.Replayed != preCrash {
		t.Fatalf("replayed %d units from the compacted ledger, want %d", st.Replayed, preCrash)
	}
	if got, want := len(processed), len(faults)-preCrash; got != want {
		t.Fatalf("worker processed %d units after resume, want %d", got, want)
	}
	resp, err := clB.Results(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if want := localResults[i].Status.String(); r.Status != want {
			t.Fatalf("fault %d (%s): status %s, local %s", i, faults[i].Describe(c), r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from the uninterrupted run")
	}
}

// TestLedgerCompactTerminalStub: a finished job's journal compacts to the
// two-line identity stub — enough for ID allocation and the resume skip,
// nothing more.
func TestLedgerCompactTerminalStub(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLedger(dir, "job-000001")
	if err != nil {
		t.Fatal(err)
	}
	l.RecordJob("job-000001", "c17", "deadbeef", "INPUT(a)\n", JobOptions{}, []WireFault{"rising a"})
	l.RecordPass(WireSpec{}, [][]int{{0}})
	l.RecordUnit(0, "wA", nil)
	l.RecordState(stateDone, "")
	l.Close()

	path := filepath.Join(dir, "job-000001.jsonl")
	if _, _, err := CompactLedgerFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("terminal stub has %d lines, want 2:\n%s", len(lines), raw)
	}
	lj, err := loadLedgerFile(path)
	if err != nil || lj == nil {
		t.Fatalf("stub unreadable: %v", err)
	}
	if lj.ID != "job-000001" || lj.State != stateDone {
		t.Fatalf("stub lost identity or state: %+v", lj)
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
	l.RecordPass(WireSpec{}, [][]int{{0}})
	l.Close()

	lj, err := loadLedgerFile(path)
	if err != nil || lj == nil {
		t.Fatalf("resynced ledger unreadable: %v", err)
	}
	if lj.Err != nil {
		t.Fatalf("sealed torn line reported as a record that does not decode: %v", lj.Err)
	}
	if lj.Pass == nil {
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
	l.RecordPass(WireSpec{}, [][]int{{0}})

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

// replayCut is the accounting replay derives from a loaded ledger, applying
// replayLocked's own filters: only units recorded after the pass record, in
// range of its cut, first completion wins.  This is exactly what resume
// applies, so compaction must preserve it bit for bit.
func replayCut(lj *LedgerJob) []LedgerUnit {
	if lj.Pass == nil {
		return nil // no pass record: replay never applies these
	}
	var cut []LedgerUnit
	seen := make(map[int]bool)
	for _, u := range lj.Units {
		if u.Unit < 0 || u.Unit >= len(lj.Pass.Units) || seen[u.Unit] {
			continue
		}
		seen[u.Unit] = true
		if len(u.Outcomes) == 0 {
			// Replay reads an empty list as it reads an absent one, and
			// compaction writes neither.
			u.Outcomes = nil
		}
		cut = append(cut, u)
	}
	return cut
}

// recutLedger is a ledger whose recorded cut a coordinator discarded and
// recorded afresh, after which only the units recorded under the new cut
// replay.
const recutLedger = `{"t":"job","version":1,"id":"j6","name":"c17","bench":"INPUT(a)\n"}
{"t":"pass","spec":{"width":1,"budget":1},"units":[[0],[1]]}
{"t":"unit","unit":0,"worker":"wA","outcomes":[{"status":"aborted","phase":"aptpg"}]}
{"t":"unit","unit":1,"worker":"wA","outcomes":[{"status":"aborted","phase":"aptpg"}]}
{"t":"pass","spec":{"width":1,"budget":8},"units":[[0],[1]]}
{"t":"unit","unit":1,"worker":"wB","outcomes":[{"status":"redundant","phase":"fptpg"}]}
`

// TestLedgerReplayRule loads the recut ledger, as written and compacted:
// only the unit recorded after the re-recorded cut replays.
func TestLedgerReplayRule(t *testing.T) {
	for _, tc := range []struct {
		name, ledger string
		budget       int
		want         []LedgerUnit
	}{
		{"recut", recutLedger, 8, []LedgerUnit{{Unit: 1, Worker: "wB", Outcomes: []WireOutcome{{Status: "redundant", Phase: "fptpg"}}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			if err := os.WriteFile(path, []byte(tc.ledger), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, form := range []string{"written", "compacted"} {
				if form == "compacted" {
					if _, _, err := CompactLedgerFile(path); err != nil {
						t.Fatal(err)
					}
				}
				lj, err := loadLedgerFile(path)
				if err != nil || lj == nil || lj.Err != nil {
					t.Fatalf("%s: ledger unreadable: %v %+v", form, err, lj)
				}
				if lj.Pass == nil || lj.Pass.Spec.Budget != tc.budget || len(lj.Pass.Units) != 2 {
					t.Fatalf("%s: pass %+v, want the cut of two units at budget %d", form, lj.Pass, tc.budget)
				}
				if got := replayCut(lj); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("%s: replays %+v, want %+v", form, got, tc.want)
				}
			}
		})
	}
}

// FuzzLedgerCompact throws arbitrary bytes at the JSONL loader and then at
// the compactor, holding the resume safety property: parsing never panics,
// and for any loadable journal the replay cut — which units exist, who
// completed them first, with which outcomes — survives compaction unchanged
// (so resume can never double-dispatch a recorded unit or drop a completed
// one), terminal states survive, and compaction is idempotent.
func FuzzLedgerCompact(f *testing.F) {
	f.Add([]byte(`{"t":"job","version":1,"id":"j1","name":"c17","bench":"INPUT(a)\n"}
{"t":"pass","spec":{},"units":[[0],[1]]}
{"t":"unit","unit":0,"worker":"wA","outcomes":[{"s":"tested"}]}
{"t":"unit","unit":0,"worker":"wB"}
{"t":"unit","unit":1,"worker":"wA"}
`))
	f.Add([]byte(`{"t":"job","version":1,"id":"j2","name":"c17"}
{"t":"state","state":"done"}
`))
	f.Add([]byte(`{"t":"job","version":1,"id":"j3"}
{"t":"unit","un`)) // torn tail
	f.Add([]byte("\n\ngarbage not json\n{\"t\":\"job\",\"version\":1,\"id\":\"j4\"}\n"))
	f.Add([]byte(`{"t":"job","id":"j5"}
{"t":"pass","spec":{},"units":[[0]]}
`)) // no format version
	f.Add([]byte(recutLedger))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lj, err := loadLedgerFile(path)
		if err != nil || lj == nil {
			return // unloadable input: nothing to preserve
		}
		wantCut, wantState := replayCut(lj), lj.State

		if _, _, err := CompactLedgerFile(path); err != nil {
			t.Fatalf("compaction failed on a loadable journal: %v", err)
		}
		lj2, err := loadLedgerFile(path)
		if err != nil || lj2 == nil {
			t.Fatalf("journal unloadable after compaction: %v", err)
		}
		if lj2.State != wantState {
			t.Fatalf("terminal state %q became %q under compaction", wantState, lj2.State)
		}
		if wantState == "" {
			if lj2.ID != lj.ID || lj2.Bench != lj.Bench {
				t.Fatal("live job lost identity or circuit under compaction")
			}
			if got := replayCut(lj2); !reflect.DeepEqual(got, wantCut) {
				t.Fatalf("replay cut changed under compaction:\nbefore: %#v\nafter:  %#v", wantCut, got)
			}
		}

		// Idempotence: a second compaction must be a byte-level no-op.
		once, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := CompactLedgerFile(path); err != nil {
			t.Fatal(err)
		}
		twice, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("compaction is not idempotent")
		}
	})
}
