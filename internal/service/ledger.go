package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/chaos"
)

// The ledger makes jobs resumable across coordinator restarts: one JSONL
// file per job under the ledger directory records the job itself (circuit
// text, resolved options, faults — everything needed to re-run it), the
// first completion of each unit with its outcomes, and, once the job ends,
// its terminal state.  On startup the coordinator replays unfinished
// ledgers: the job is rebuilt, its recorded unit completions are applied
// without re-dispatching them (no patterns are re-generated for
// already-merged units), and only the remainder is leased out.  Replay is
// sound because the unit cut is a pure function of the job's options and
// faults (sched.Group), which the job record holds, and a recorded unit
// goes through the checks and the apply path a live report does.
//
// The job record carries the ledger's format version (ledgerVersion).  A
// job whose record carries none, or another, is not resumed: resume records
// it failed with a *LedgerVersionError, as it does a job whose ledger holds
// a line that does not decode.
//
// Records are appended, never rewritten in place; a torn final line (crash
// mid-write) is ignored on load, and reopening a file with a torn tail
// writes a newline first so the next record cannot concatenate onto the
// debris.  Such sealed debris is a strict prefix of a record, and the loader
// skips it too.  Any other line that does not decode (a record this
// coordinator cannot read) is reported: resume records the job failed, with
// the decode error, instead of forgetting it.  Worker effort deltas are not
// ledgered — they are informational, and the search effort of pre-crash
// units is simply absent from a resumed job's statistics.
//
// A finished job needs none of its records again, so its journal is
// replaced whole by a two-line stub (Finish): the job record's identity and
// version, then the terminal state.  Resume reads nothing else of it, and
// never rewrites a journal.

// ledgerVersion is the format version of the ledgers this build writes,
// and the only one it resumes.  A change to what a record holds, or to how
// replay reads it, takes the next version, and so does a change to the unit
// cut (sched.Group), which the ledger does not record: replay applies a
// recorded unit ID to the cut the job computes now.  Version 3 records no
// unit cut and the job's resolved options; version 2 recorded the cut in a
// pass record, and version 1 one object per outcome.
const ledgerVersion = 3

// LedgerVersionError is why a job whose ledger has another format version
// than ledgerVersion is not resumed: an older build wrote it (no version,
// or a lower one) or a newer one did.
type LedgerVersionError struct {
	// Version is the job record's version, 0 when it carries none.
	Version int
}

func (e *LedgerVersionError) Error() string {
	if e.Version == 0 {
		return fmt.Sprintf("ledger job record carries no format version; this build reads version %d", ledgerVersion)
	}
	return fmt.Sprintf("ledger job record has format version %d; this build reads version %d", e.Version, ledgerVersion)
}

// ledgerRecord is one JSONL line; T selects which fields are meaningful.
type ledgerRecord struct {
	T string `json:"t"` // "job", "unit" or "state"

	// T == "job"
	Version int         `json:"version,omitempty"`
	ID      string      `json:"id,omitempty"`
	Name    string      `json:"name,omitempty"`
	Hash    string      `json:"hash,omitempty"`
	Bench   string      `json:"bench,omitempty"`
	Options *JobOptions `json:"options,omitempty"`
	Faults  []WireFault `json:"faults,omitempty"`

	// T == "unit"; unit 0 is recorded without the field
	Unit     int             `json:"unit,omitempty"`
	Worker   string          `json:"worker,omitempty"`
	Outcomes *OutcomeColumns `json:"outcomes,omitempty"`

	// T == "state"
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"` // why a failed job failed
}

// Ledger appends the records of one job.  All methods are safe for
// concurrent use and a nil *Ledger is a valid no-op (persistence disabled).
type Ledger struct {
	mu    sync.Mutex
	path  string
	f     *os.File // nil once closed or finished
	torn  bool     // last line on disk lacks its newline; resync before appending
	chaos *chaos.Injector
}

// OpenLedger opens (creating or appending) the ledger file of a job.  A
// pre-existing torn tail (crash mid-append) is detected here so the first
// new record starts on a fresh line instead of merging with the debris.
func OpenLedger(dir, jobID string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, jobID+".jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Ledger{path: path, f: f}
	if fi, err := f.Stat(); err == nil {
		l.torn = hasTornTail(path, fi.Size())
	}
	return l, nil
}

// hasTornTail reports whether the file's final byte is not a newline.
func hasTornTail(path string, size int64) bool {
	if size == 0 {
		return false
	}
	rf, err := os.Open(path)
	if err != nil {
		return false
	}
	defer rf.Close()
	var last [1]byte
	if _, err := rf.ReadAt(last[:], size-1); err != nil {
		return false
	}
	return last[0] != '\n'
}

// SetChaos routes every append through the injector's torn-write failpoint.
func (l *Ledger) SetChaos(in *chaos.Injector) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.chaos = in
	l.mu.Unlock()
}

func (l *Ledger) append(rec ledgerRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	if l.torn {
		// Seal the torn line so this record starts fresh; the loader skips
		// the unparseable debris line.
		if _, err := l.f.Write([]byte{'\n'}); err != nil {
			return
		}
		l.torn = false
	}
	n, err := l.chaos.TearWrite(l.f, b)
	if err != nil || n < len(b) {
		// Torn (injected or real): whatever landed lacks its newline.  A
		// write that delivered nothing left the file clean.
		l.torn = n > 0 && b[n-1] != '\n'
	}
}

// RecordJob records the job itself: everything a restarted coordinator needs
// to re-run it from scratch.
func (l *Ledger) RecordJob(id, name, hash, bench string, opts JobOptions, faults []WireFault) {
	l.append(ledgerRecord{T: "job", Version: ledgerVersion, ID: id, Name: name, Hash: hash, Bench: bench, Options: &opts, Faults: faults})
}

// RecordUnit records one completed unit with its outcomes.
func (l *Ledger) RecordUnit(unit int, worker string, outcomes *OutcomeColumns) {
	l.append(ledgerRecord{T: "unit", Unit: unit, Worker: worker, Outcomes: outcomes})
}

// RecordState appends a terminal state and its reason to the journal:
// resume records a job it cannot resume failed this way.
func (l *Ledger) RecordState(state, reason string) {
	l.append(ledgerRecord{T: "state", State: state, Error: reason})
}

// Finish replaces the journal of a job that ended with its two-line stub:
// the job record's identity and format version, then the terminal state
// ("done", "canceled" or "failed") and its reason.  The stub goes to a name
// resume does not read, outside the torn-append failpoint, and is renamed
// over the journal, so a crash leaves the whole journal or the whole stub.
// The ledger is closed afterwards.  Like a failed append, a stub that cannot
// be written is not reported: it leaves the journal, and the job resumable.
func (l *Ledger) Finish(id, name, state, reason string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return
	}
	_ = l.f.Close()
	l.f = nil
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(ledgerRecord{T: "job", Version: ledgerVersion, ID: id, Name: name})
	_ = enc.Encode(ledgerRecord{T: "state", State: state, Error: reason})
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, l.path); err != nil {
		_ = os.Remove(tmp)
	}
}

// Close closes the underlying file.
func (l *Ledger) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

// LedgerJob is the replayable content of one job's ledger.
type LedgerJob struct {
	// ID is the journal's file name without its extension: the job's ID
	// and the name of the file resume writes to.
	ID      string
	Name    string
	Hash    string
	Bench   string
	Options JobOptions
	Faults  []WireFault
	// State is the last terminal state recorded, or "" for a job the
	// coordinator should resume; Reason is the error recorded with it.
	State  string
	Reason string
	// Err is the first complete line that does not decode, a
	// *LedgerVersionError for a job record of another format version, or
	// the error of a job record that names another job than its file name.
	// The ledger is not replayable: resume records the job failed with this
	// error, in this file.
	Err error
	// Units are the recorded unit completions, in journal order.
	Units []LedgerUnit
}

// LedgerUnit is a recorded unit completion.
type LedgerUnit struct {
	Unit     int
	Worker   string
	Outcomes OutcomeColumns
}

// loadLedgerFile reads one job's ledger.  Two kinds of line are torn writes
// and skipped: the final line when it lacks its newline (a crash
// mid-append), and a complete line that is a strict prefix of a record (a
// torn append that the next append sealed with a newline).  Any other line
// that does not decode sets LedgerJob.Err, and so does a job record of
// another format version or one that names another job than the file name;
// the job is then returned even without a job record, so resume can report
// it.
func loadLedgerFile(path string) (*LedgerJob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	id := strings.TrimSuffix(filepath.Base(path), ".jsonl")
	var (
		lj            *LedgerJob
		state, reason string
		bad           error
	)
	rd := bufio.NewReaderSize(f, 64*1024)
	for n, tail := 1, false; !tail; n++ {
		line, err := rd.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		tail = err == io.EOF // no newline: the final line, maybe torn
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		// Unknown fields are ignored, unlike on submit: the job record's
		// version says whether this build reads the ledger.
		var rec ledgerRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if !tail && !truncated(line) && bad == nil {
				bad = fmt.Errorf("ledger line %d does not decode: %w", n, err)
			}
			continue
		}
		switch rec.T {
		case "job":
			switch {
			case bad != nil: // the first error stands
			case rec.Version != ledgerVersion:
				bad = &LedgerVersionError{Version: rec.Version}
			case rec.ID != "" && rec.ID != id:
				bad = fmt.Errorf("ledger job record names job %q, but its journal is %s", rec.ID, filepath.Base(path))
			}
			lj = &LedgerJob{
				ID:     id,
				Name:   rec.Name,
				Hash:   rec.Hash,
				Bench:  rec.Bench,
				Faults: rec.Faults,
			}
			if rec.Options != nil {
				lj.Options = *rec.Options
			}
		case "unit":
			if lj != nil {
				lu := LedgerUnit{Unit: rec.Unit, Worker: rec.Worker}
				if rec.Outcomes != nil {
					lu.Outcomes = *rec.Outcomes
				}
				lj.Units = append(lj.Units, lu)
			}
		case "state":
			state, reason = rec.State, rec.Error
		}
	}
	if bad != nil {
		if lj == nil {
			lj = &LedgerJob{ID: id}
		}
		lj.Err = bad
	}
	if lj != nil {
		lj.State, lj.Reason = state, reason
	}
	return lj, nil
}

// truncated reports whether line is a strict prefix of a JSON value.
func truncated(line []byte) bool {
	err := json.NewDecoder(bytes.NewReader(line)).Decode(new(json.RawMessage))
	return errors.Is(err, io.ErrUnexpectedEOF)
}
