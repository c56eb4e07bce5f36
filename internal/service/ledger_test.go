package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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
			w = newCrank(t, cl, worker, c, spec.Options)
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

// readJournal decodes every line of a job's journal.
func readJournal(t *testing.T, path string) []ledgerRecord {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []ledgerRecord
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var rec ledgerRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestServiceLedgerResume crashes the coordinator after N units and
// restarts it on the same ledger directory: the job must resume under the
// same ID, replay exactly the N recorded units without re-dispatching them,
// and finish with statuses and test set identical to an uninterrupted
// single-process run.  The interrupted journal holds the job record, of
// this format version and with the resolved options, and one record per
// completed unit; the finished one is the job's two-line stub.
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

	path := filepath.Join(dir, sub.JobID+".jsonl")
	coreOpts, err := opts.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	recs := readJournal(t, path)
	if job := recs[0]; job.T != "job" || job.Version != ledgerVersion || job.ID != sub.JobID ||
		!reflect.DeepEqual(*job.Options, WireOptions(coreOpts)) || len(job.Faults) != len(faults) {
		t.Fatalf("journal starts %+v, want the job record of version %d with options %+v", job, ledgerVersion, WireOptions(coreOpts))
	}
	units := map[int]bool{}
	for _, rec := range recs[1:] {
		if rec.T != "unit" || units[rec.Unit] {
			t.Fatalf("journal record %+v, want one record per completed unit", rec)
		}
		units[rec.Unit] = true
	}
	if len(units) != preCrash {
		t.Fatalf("journal records %d units, want %d", len(units), preCrash)
	}

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
	for i, r := range decoded(t, faults, resp) {
		if want := localResults[i].Status; r.Status != want {
			t.Fatalf("fault %d (%s): status %s, local %s", i, faults[i].Describe(c), r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from the uninterrupted run")
	}
	want := []ledgerRecord{{T: "job", Version: ledgerVersion, ID: sub.JobID, Name: "c432"}, {T: "state", State: stateDone}}
	if got := readJournal(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("finished job's journal %+v, want the stub %+v", got, want)
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
	for i, r := range decoded(t, faults, resp) {
		if want := local[i].Status; r.Status != want {
			t.Fatalf("fault %d (%s): status %s, local %s", i, faults[i].Describe(c), r.Status, want)
		}
	}
	if resp.Tests != localTests {
		t.Fatal("merged test set differs from a fresh local run")
	}
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
	writeLedger(t, dir, "j1", c, text, faults, opts, recorded)
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
		if rec.T != "unit" || len(rec.Outcomes.Tests) == 0 {
			continue
		}
		v1, v2, _ := strings.Cut(rec.Outcomes.Tests[0], " -> ")
		rec.Outcomes.Tests[0] = v1 + "0 -> " + v2 + "0"
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

// writeLedger writes an unfinished job's ledger through the Ledger API, as
// a coordinator journals it: the job record with the resolved options, then
// the outcomes of the job's first n units.  The options must set word width
// 1, which cuts the job into one unit per fault.
func writeLedger(t *testing.T, dir, id string, c *circuit.Circuit, text string, faults []paths.Fault, jo JobOptions, n int) {
	t.Helper()
	opts, err := jo.ToCore()
	if err != nil {
		t.Fatal(err)
	}
	if opts.WordWidth != 1 {
		t.Fatalf("writeLedger cuts one unit per fault, so it needs word width 1, not %d", opts.WordWidth)
	}
	gen := core.New(c, opts)
	led, err := OpenLedger(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	led.RecordJob(id, c.Name, HashBench(text), text, WireOptions(opts), EncodeFaults(c, faults))
	for u := 0; u < n; u++ {
		outs, _ := gen.ProcessRemoteUnit(context.Background(), faults[u:u+1], nil)
		oc := outcomeColumns(outs)
		led.RecordUnit(u, "old", &oc)
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
// wrote it, format version 1, whose unit records hold one object per
// outcome (testdata/version1.jsonl, written by a build of that version),
// format version 2, which records the unit cut in a pass record
// (testdata/version2.jsonl, likewise), or a version this build does not
// know.  The job must not resume: its ledger must record it failed with the
// *LedgerVersionError, once across restarts, and the next submit must get a
// new ID.
func TestServiceLedgerVersionRefused(t *testing.T) {
	c, text := benchText(t, "c17")
	faults := paths.SampleFaults(c, 4, 1995)
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0)}
	for _, tc := range []struct {
		name    string
		version int
		fixture string // a ledger an older build wrote, resumed as it is
	}{
		{"missing", 0, ""},
		{"version 1", 1, "version1.jsonl"},
		{"version 2", 2, "version2.jsonl"},
		{"newer", ledgerVersion + 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "j1.jsonl")
			var raw []byte
			if tc.fixture != "" {
				fixture, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
				if err != nil {
					t.Fatal(err)
				}
				raw = fixture
			} else {
				writeLedger(t, dir, "j1", c, text, faults, opts, 2)
				written, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				versioned := fmt.Sprintf(`{"t":"job","version":%d,`, ledgerVersion)
				if !bytes.HasPrefix(written, []byte(versioned)) {
					t.Fatalf("job record does not start %s:\n%s", versioned, written)
				}
				stamp := `{"t":"job",`
				if tc.version != 0 {
					stamp = fmt.Sprintf(`{"t":"job","version":%d,`, tc.version)
				}
				raw = append([]byte(stamp), written[len(versioned):]...)
			}
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

// TestServiceLedgerStartLeavesJournals starts a coordinator on a ledger
// directory holding a version-2 journal, which cannot resume, an unfinished
// journal with a unit recorded twice and a torn tail, a finished job's stub
// and a torn job record.  Starting, resuming the unfinished job up to its
// dispatch, and shutting down write to one file only: the version-2 journal
// gains its failed line.  Every other file stays byte for byte as it was.
func TestServiceLedgerStartLeavesJournals(t *testing.T) {
	dir := t.TempDir()
	fixture, err := os.ReadFile(filepath.Join("testdata", "version2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"j1.jsonl": string(fixture), "j4.jsonl": `{"t":"job","id":"j4","name":"c17","hash":"`}
	c, text := benchText(t, "c17")
	writeLedger(t, dir, "j2", c, text, paths.SampleFaults(c, 4, 1995), JobOptions{WordWidth: 1, SimInterval: intp(0)}, 2)
	raw, err := os.ReadFile(filepath.Join(dir, "j2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	unit := strings.SplitAfter(string(raw), "\n")[1]
	files["j2.jsonl"] = string(raw) + unit + unit[:len(unit)/2]
	l, err := OpenLedger(dir, "j3")
	if err != nil {
		t.Fatal(err)
	}
	l.RecordJob("j3", "c17", HashBench(text), text, JobOptions{}, nil)
	l.Finish("j3", "c17", stateCanceled, "")
	l.Close()
	if raw, err = os.ReadFile(filepath.Join(dir, "j3.jsonl")); err != nil {
		t.Fatal(err)
	}
	files["j3.jsonl"] = string(raw)
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := journals(t, dir)

	co, err := NewCoordinator(Config{LedgerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j := co.job("j2")
	if j == nil {
		co.Close()
		t.Fatal("the unfinished job was not resumed")
	}
	ctx := budget(t)
	for {
		j.mu.Lock()
		replayed := j.pass != nil && j.replayed == 2
		j.mu.Unlock()
		if replayed {
			break
		}
		select {
		case <-ctx.Done():
			co.Close()
			t.Fatal("the resumed job never replayed its two units")
		case <-time.After(time.Millisecond):
		}
	}
	started := journals(t, dir)
	co.Close()
	closed := journals(t, dir)

	want := maps.Clone(before)
	var ve *LedgerVersionError
	lj, err := loadLedgerFile(filepath.Join(dir, "j1.jsonl"))
	if err != nil || !errors.As(lj.Err, &ve) {
		t.Fatalf("the version-2 journal loads with %v, %v; want its failed line after the *LedgerVersionError", lj, err)
	}
	want["j1.jsonl"] += fmt.Sprintf(`{"t":"state","state":"failed","error":%q}`+"\n", ve.Error())
	for _, tc := range []struct {
		when string
		got  map[string]string
	}{{"after the start", started}, {"after the shutdown", closed}} {
		if !maps.Equal(tc.got, want) {
			for name := range tc.got {
				if tc.got[name] != want[name] {
					t.Errorf("%s: %s holds\n%q\nwant\n%q", tc.when, name, tc.got[name], want[name])
				}
			}
			t.Fatalf("%s: the directory holds %v, want %v", tc.when, slices.Sorted(maps.Keys(tc.got)), slices.Sorted(maps.Keys(want)))
		}
	}
}

// journals reads every file of a ledger directory, by name.
func journals(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for name := range ledgerSizes(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

// TestServiceLedgerJobIDIsFileName starts a coordinator on journals copied
// under other names than the job IDs their records carry: a version-2
// journal of job j1 as j3.jsonl, and a current-version journal of job j1 as
// j5.jsonl.  A journal's job ID is its file name, so neither resumes, each
// gains one failed line in its own file, and no other file appears.  A
// second start writes nothing, and the next submit gets j6.
func TestServiceLedgerJobIDIsFileName(t *testing.T) {
	dir := t.TempDir()
	version2, err := os.ReadFile(filepath.Join("testdata", "version2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	c, text := benchText(t, "c17")
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0)}
	elsewhere := t.TempDir()
	writeLedger(t, elsewhere, "j1", c, text, paths.SampleFaults(c, 4, 1995), opts, 2)
	current, err := os.ReadFile(filepath.Join(elsewhere, "j1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	before := map[string]string{"j3.jsonl": string(version2), "j5.jsonl": string(current)}
	for name, content := range before {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var first map[string]string
	for start := 0; start < 2; start++ {
		co, err := NewCoordinator(Config{LedgerDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"j1", "j3", "j5"} {
			if co.job(id) != nil {
				t.Errorf("start %d: job %s was resumed", start, id)
			}
		}
		got := journals(t, dir)
		if start == 0 {
			if !maps.EqualFunc(got, before, func(g, b string) bool { return strings.HasPrefix(g, b) }) {
				t.Fatalf("the directory holds %v, want only %v, each appended to", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(before)))
			}
			for name, content := range got {
				var rec ledgerRecord
				added := strings.TrimPrefix(content, before[name])
				if err := json.Unmarshal([]byte(added), &rec); err != nil || strings.Count(added, "\n") != 1 ||
					rec.T != "state" || rec.State != stateFailed {
					t.Fatalf("%s gained %q, want one failed line", name, added)
				}
			}
			if rec := readJournal(t, filepath.Join(dir, "j5.jsonl")); !strings.Contains(rec[len(rec)-1].Error, `names job "j1"`) {
				t.Errorf("j5.jsonl failed with %q, want the error naming the record's job", rec[len(rec)-1].Error)
			}
			first = got
		} else {
			if !maps.Equal(got, first) {
				t.Error("a second start wrote to the journals")
			}
			srv := httptest.NewServer(co)
			sub, err := NewClient(srv.URL).SubmitBench(ctx, "c17", text, opts, nil)
			srv.Close()
			if err != nil {
				t.Fatal(err)
			}
			if sub.JobID != "j6" {
				t.Errorf("next submit got ID %s, want j6", sub.JobID)
			}
		}
		co.Close()
	}
}
