package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/paths"
)

// driveWorker is a hand-cranked worker: it leases units one at a time,
// processes them through a job-local generator and posts the results, until
// it has completed n units or the job reaches a terminal state.  It returns
// the unit IDs it processed — the exact accounting the resume test needs to
// prove replayed units are never re-dispatched.
func driveWorker(t *testing.T, cl *Client, worker, jobID string, c *circuit.Circuit, n int) []int {
	t.Helper()
	ctx := context.Background()
	var (
		w         *crank
		processed []int
	)
	for len(processed) < n {
		lease, ok, err := cl.Lease(ctx, worker, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			st, err := cl.Status(ctx, jobID)
			if err != nil {
				t.Fatal(err)
			}
			switch st.State {
			case stateDone, stateCanceled, stateFailed:
				return processed
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if w == nil {
			spec, err := cl.Spec(ctx, lease.JobID)
			if err != nil {
				t.Fatal(err)
			}
			faults, err := DecodeFaults(c, spec.Faults)
			if err != nil {
				t.Fatal(err)
			}
			w = newCrank(t, cl, worker, c, spec.Options, faults)
		}
		post := w.process(ctx, lease)
		for _, u := range post.Units {
			processed = append(processed, u.ID)
		}
		if _, err := cl.PostUnitResults(ctx, lease.JobID, post); err != nil {
			t.Fatal(err)
		}
	}
	return processed
}

// TestServiceLedgerResume crashes the coordinator after N units and
// restarts it on the same ledger directory: the job must resume under the
// same ID, replay exactly the N recorded units without re-dispatching them,
// and finish with statuses and test set identical to an uninterrupted
// single-process run.
func TestServiceLedgerResume(t *testing.T) {
	dir := t.TempDir()
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	// Width 1 makes the accounting exact: the pass is one unit per fault.
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0), Compact: "reverse"}
	localResults, localTests, _ := localRun(t, c, opts, faults)
	ctx := context.Background()

	// Phase 1: merge preCrash units, then stop the coordinator.  Shutdown
	// records no terminal ledger state — the job stays resumable.
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

	// Phase 2: a fresh coordinator on the same ledger resumes the job.
	coB, err := NewCoordinator(Config{LedgerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer coB.Close()
	srvB := httptest.NewServer(coB)
	defer srvB.Close()
	clB := NewClient(srvB.URL)

	if _, err := clB.Status(ctx, sub.JobID); err != nil {
		t.Fatalf("resumed coordinator does not know job %s: %v", sub.JobID, err)
	}
	processed := driveWorker(t, clB, "wB", sub.JobID, c, 1<<30)
	st, err := clB.Wait(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != stateDone {
		t.Fatalf("resumed job finished in state %q", st.State)
	}
	if st.Replayed != preCrash {
		t.Fatalf("replayed %d units from the ledger, want %d", st.Replayed, preCrash)
	}
	// No re-generated patterns for merged units: the pass has exactly one
	// unit per fault, and worker B processed only the remainder.
	if got, want := len(processed), len(faults)-preCrash; got != want {
		t.Fatalf("worker processed %d units after resume, want %d (replayed units re-dispatched)", got, want)
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

// TestServiceLedgerTerminalNotResumed checks that finished jobs stay
// finished: a restart on a ledger holding a completed job must not re-run
// it.
func TestServiceLedgerTerminalNotResumed(t *testing.T) {
	dir := t.TempDir()
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 8, 1995)
	opts := JobOptions{SimInterval: intp(0)}
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
	driveWorker(t, clA, "wA", sub.JobID, c, 1<<30)
	if st, err := clA.Wait(ctx, sub.JobID); err != nil || st.State != stateDone {
		t.Fatalf("job did not finish cleanly: %v %+v", err, st)
	}
	srvA.Close()
	coA.Close()

	coB, err := NewCoordinator(Config{LedgerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer coB.Close()
	srvB := httptest.NewServer(coB)
	defer srvB.Close()
	if _, err := NewClient(srvB.URL).Status(ctx, sub.JobID); err == nil {
		t.Fatal("terminal job resurrected after restart")
	}
}

// resumeToEnd starts a coordinator on the ledger directory, drives one
// hand-cranked worker through every unit the resumed job "j1" dispatches,
// and returns the job's final status, its results and the units the worker
// processed.
func resumeToEnd(t *testing.T, dir string, c *circuit.Circuit) (JobStatus, ResultsResponse, []int) {
	t.Helper()
	ctx := context.Background()
	co, err := NewCoordinator(Config{LedgerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	cl := NewClient(srv.URL)
	processed := driveWorker(t, cl, "w", "j1", c, 1<<30)
	st, err := cl.Wait(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != stateDone {
		t.Fatalf("resumed job finished in state %q (%s)", st.State, st.Error)
	}
	resp, err := cl.Results(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	return st, resp, processed
}

// assertMatchesLocal checks a job's results against a fresh local run:
// every status, and the merged test set byte for byte.
func assertMatchesLocal(t *testing.T, c *circuit.Circuit, faults []paths.Fault, resp ResultsResponse, local []core.FaultResult, localTests string) {
	t.Helper()
	for i, r := range resp.Results {
		if want := local[i].Status.String(); r.Status != want {
			t.Fatalf("fault %d (%s): status %s, local %s", i, faults[i].Describe(c), r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from a fresh local run")
	}
}

// TestServiceLedgerDiscardedCutStaysDiscarded resumes a ledger twice whose
// recorded cut was made under another spec (budget 1) than the job computes
// (budget 8).  The first coordinator discards the recorded cut, records its
// own and completes 5 units; the second must replay exactly those 5, never
// the 12 units recorded under the discarded cut, whose budget-1 outcomes
// abort faults a full budget tests.
func TestServiceLedgerDiscardedCutStaysDiscarded(t *testing.T) {
	dir := t.TempDir()
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0), Compact: "reverse"}
	writeLedger(t, dir, "j1", c, text, faults, opts, WireSpec{Width: 1, Budget: 1}, 12)
	local, localTests, _ := localRun(t, c, opts, faults)

	coA, err := NewCoordinator(Config{LedgerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(coA)
	const completed = 5
	driveWorker(t, NewClient(srvA.URL), "wA", "j1", c, completed)
	srvA.Close()
	coA.Close()

	st, resp, processed := resumeToEnd(t, dir, c)
	if st.Replayed != completed {
		t.Errorf("replayed %d units, want the %d completed under the recorded cut", st.Replayed, completed)
	}
	if got, want := len(processed), len(faults)-completed; got != want {
		t.Errorf("dispatched %d units after the second resume, want %d", got, want)
	}
	assertMatchesLocal(t, c, faults, resp, local, localTests)
}

// TestServiceLedgerReplayChecksWidths resumes a ledger one of whose unit
// records carries a tested outcome with one value too many.  Replay checks
// a recorded unit as a live post is checked, so that unit is dispatched
// again instead of replayed into the merged set, and the job ends done.
func TestServiceLedgerReplayChecksWidths(t *testing.T) {
	dir := t.TempDir()
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	const recorded = 12
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0), Compact: "reverse"}
	writeLedger(t, dir, "j1", c, text, faults, opts, WireSpec{Width: 1, Budget: 8}, recorded)
	local, localTests, _ := localRun(t, c, opts, faults)

	path := filepath.Join(dir, "j1.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	widened := -1
	for i, line := range lines {
		var rec ledgerRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.T != "unit" || rec.Outcomes[0].Status != "tested" {
			continue
		}
		v1, v2, _ := strings.Cut(rec.Outcomes[0].Test, " -> ")
		rec.Outcomes[0].Test = v1 + "0 -> " + v2 + "0"
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i], widened = string(b), rec.Unit
		break
	}
	if widened < 0 {
		t.Fatal("no recorded unit tests its fault; pick another sample")
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, resp, processed := resumeToEnd(t, dir, c)
	if st.Replayed != recorded-1 {
		t.Errorf("replayed %d units, want %d", st.Replayed, recorded-1)
	}
	if !slices.Contains(processed, widened) || len(processed) != len(faults)-recorded+1 {
		t.Errorf("dispatched units %v after the resume, want unit %d and the %d never recorded", processed, widened, len(faults)-recorded)
	}
	assertMatchesLocal(t, c, faults, resp, local, localTests)
}

// writeLedger writes an unfinished job's ledger through the Ledger API:
// the job record, a pass record with the given spec cutting the faults into
// one unit each, and the first n units' outcomes, computed under that spec.
func writeLedger(t *testing.T, dir, id string, c *circuit.Circuit, text string, faults []paths.Fault, jo JobOptions, ws WireSpec, n int) {
	t.Helper()
	opts, err := jo.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	opts.WordWidth, opts.MaxBacktracks = ws.Width, ws.Budget
	gen := core.New(c, opts)
	led, err := OpenLedger(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	led.RecordJob(id, c.Name, HashBench(text), text, jo, EncodeFaults(c, faults))
	units := make([][]int, len(faults))
	for f := range units {
		units[f] = []int{f}
	}
	led.RecordPass(ws, units)
	for u := 0; u < n; u++ {
		outs, _ := gen.ProcessRemoteUnit(context.Background(), faults[u:u+1], nil)
		wire := make([]WireOutcome, len(outs))
		for i, o := range outs {
			wire[i] = EncodeOutcome(o)
		}
		led.RecordUnit(u, "old", wire)
	}
}

// TestServiceLedgerUndecodableJobRecord restarts a coordinator on a ledger
// whose job record does not decode: the object-form faults an older
// coordinator journaled.  The job must not resume, its ledger must record it
// failed with the decode error (once: a second restart adds nothing), and
// its ID must stay reserved, so the next submit gets a new one.
func TestServiceLedgerUndecodableJobRecord(t *testing.T) {
	dir := t.TempDir()
	fixture, err := os.ReadFile(filepath.Join("testdata", "object-faults.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "j7.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	c, text := benchText(t, "c17")
	ctx := context.Background()

	var size int64
	for restart := 0; restart < 2; restart++ {
		co, err := NewCoordinator(Config{LedgerDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(co)
		cl := NewClient(srv.URL)
		if _, err := cl.Status(ctx, "j7"); err == nil {
			t.Fatal("a job whose record does not decode was resumed")
		}
		if restart == 0 {
			sub, err := cl.SubmitBench(ctx, "c17", text, JobOptions{SimInterval: intp(0)}, EncodeFaults(c, paths.SampleFaults(c, 2, 1995)))
			if err != nil {
				t.Fatal(err)
			}
			if sub.JobID != "j8" {
				t.Errorf("next submit got ID %s, want j8 (j7 is reserved by its ledger)", sub.JobID)
			}
			if _, err := cl.Cancel(ctx, sub.JobID); err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
		co.Close()

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, fixture) {
			t.Fatal("the ledger was rewritten instead of appended to")
		}
		lines := strings.Split(strings.TrimSpace(string(raw[len(fixture):])), "\n")
		if len(lines) != 1 {
			t.Fatalf("restart %d: ledger gained %d lines, want the one failed record:\n%s", restart, len(lines), raw[len(fixture):])
		}
		var rec ledgerRecord
		if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.T != "state" || rec.State != stateFailed || !strings.Contains(rec.Error, "does not decode") {
			t.Fatalf("appended record %s, want the failed state with the decode error", lines[0])
		}
		if restart == 1 && int64(len(raw)) != size {
			t.Fatal("a second restart appended to a ledger already recorded failed")
		}
		size = int64(len(raw))
	}
}

// TestServiceLedgerVersionRefused restarts a coordinator on ledgers whose
// job record carries no format version, as every build before versioning
// wrote it, or a version this build does not know.  The job must not
// resume: its ledger must record it failed with the *LedgerVersionError,
// once across restarts, and the next submit must get a new ID.
func TestServiceLedgerVersionRefused(t *testing.T) {
	c, text := benchText(t, "c17")
	faults := paths.SampleFaults(c, 4, 1995)
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0)}
	for _, tc := range []struct {
		name    string
		version int
	}{{"missing", 0}, {"newer", ledgerVersion + 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeLedger(t, dir, "j1", c, text, faults, opts, WireSpec{Width: 1, Budget: 8}, 2)
			path := filepath.Join(dir, "j1.jsonl")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			versioned := `{"t":"job","version":1,`
			if !bytes.HasPrefix(raw, []byte(versioned)) {
				t.Fatalf("job record does not start %s:\n%s", versioned, raw)
			}
			stamp := `{"t":"job",`
			if tc.version != 0 {
				stamp = fmt.Sprintf(`{"t":"job","version":%d,`, tc.version)
			}
			raw = append([]byte(stamp), raw[len(versioned):]...)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			lj, err := loadLedgerFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var ve *LedgerVersionError
			if !errors.As(lj.Err, &ve) || ve.Version != tc.version {
				t.Fatalf("loaded ledger error %v, want a *LedgerVersionError of version %d", lj.Err, tc.version)
			}
			ctx := context.Background()
			for restart := 0; restart < 2; restart++ {
				co, err := NewCoordinator(Config{LedgerDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(co)
				cl := NewClient(srv.URL)
				if _, err := cl.Status(ctx, "j1"); err == nil {
					t.Fatal("a job of another ledger version was resumed")
				}
				if restart == 0 {
					sub, err := cl.SubmitBench(ctx, "c17", text, opts, nil)
					if err != nil {
						t.Fatal(err)
					}
					if sub.JobID != "j2" {
						t.Errorf("next submit got ID %s, want j2 (j1 is reserved by its ledger)", sub.JobID)
					}
				}
				srv.Close()
				co.Close()
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(got, raw) {
					t.Fatal("the ledger was rewritten instead of appended to")
				}
				var rec ledgerRecord
				if err := json.Unmarshal(bytes.TrimSpace(got[len(raw):]), &rec); err != nil {
					t.Fatalf("restart %d: ledger gained %q, want the one failed record: %v", restart, got[len(raw):], err)
				}
				if rec.T != "state" || rec.State != stateFailed || rec.Error != ve.Error() {
					t.Fatalf("restart %d: appended record %+v, want failed with %q", restart, rec, ve.Error())
				}
			}
		})
	}
}

// TestServiceLedgerOutOfRangeWidthFails resumes a job that an older build,
// whose planes went up to L=512, journaled at word width 256.  This build
// refuses the width, so the job must not resume: resume records it failed
// with the width error, exactly once across restarts, and its ID stays
// reserved, so the next submit gets j6.
func TestServiceLedgerOutOfRangeWidthFails(t *testing.T) {
	dir := t.TempDir()
	c, text := benchText(t, "c17")
	faults := EncodeFaults(c, paths.SampleFaults(c, 4, 1995))
	led, err := OpenLedger(dir, "j5")
	if err != nil {
		t.Fatal(err)
	}
	led.RecordJob("j5", "c17", HashBench(text), text, JobOptions{WordWidth: 256, SimInterval: intp(0)}, faults)
	led.Close()
	path := filepath.Join(dir, "j5.jsonl")
	ctx := context.Background()

	for restart := 0; restart < 2; restart++ {
		co, err := NewCoordinator(Config{LedgerDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(co)
		cl := NewClient(srv.URL)
		if _, err := cl.Status(ctx, "j5"); err == nil {
			t.Fatal("a job journaled at word width 256 was resumed")
		}
		if restart == 0 {
			sub, err := cl.SubmitBench(ctx, "c17", text, JobOptions{SimInterval: intp(0)}, faults)
			if err != nil {
				t.Fatal(err)
			}
			if sub.JobID != "j6" {
				t.Errorf("next submit got ID %s, want j6 (j5 is reserved by its ledger)", sub.JobID)
			}
			if _, err := cl.Cancel(ctx, sub.JobID); err != nil {
				t.Fatal(err)
			}
		}
		srv.Close()
		co.Close()

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var states []ledgerRecord
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var rec ledgerRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.T == "state" {
				states = append(states, rec)
			}
		}
		if len(states) != 1 {
			t.Fatalf("restart %d: the ledger holds %d state records, want the one failed record:\n%s", restart, len(states), raw)
		}
		if s := states[0]; s.State != stateFailed || !strings.Contains(s.Error, "word width 256 out of range 1..128") {
			t.Fatalf("restart %d: state record %+v, want failed with the width error", restart, s)
		}
	}
}

// TestServiceLedgerTornJobRecordReservesID plants ledgers holding nothing
// but a job record torn by a crash — the unterminated tail of the file, or
// debris a later append sealed with a newline — from which no job loads.
// The file's name still reserves its ID: the next submit gets j8, not j7,
// and j7.jsonl is left byte for byte as it was instead of gaining a new
// job's records after the debris.
func TestServiceLedgerTornJobRecordReservesID(t *testing.T) {
	torn := `{"t":"job","id":"j7","name":"c17","hash":"`
	for _, tc := range []struct{ name, content string }{
		{"unterminated", torn},
		{"sealed", torn + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "j7.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			c, text := benchText(t, "c17")
			ctx := context.Background()
			co, err := NewCoordinator(Config{LedgerDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(co)
			cl := NewClient(srv.URL)
			sub, err := cl.SubmitBench(ctx, "c17", text, JobOptions{SimInterval: intp(0)}, EncodeFaults(c, paths.SampleFaults(c, 2, 1995)))
			if err != nil {
				t.Fatal(err)
			}
			if sub.JobID != "j8" {
				t.Errorf("next submit got ID %s, want j8 (j7 is reserved by its file name)", sub.JobID)
			}
			if _, err := cl.Cancel(ctx, sub.JobID); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			co.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != tc.content {
				t.Errorf("j7.jsonl changed:\n%q\nwant\n%q", raw, tc.content)
			}
		})
	}
}
