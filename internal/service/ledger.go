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
	"sort"
	"strings"
	"sync"

	"repro/internal/chaos"
)

// The ledger makes jobs resumable across coordinator restarts: one JSONL
// file per job under the ledger directory records the job itself (circuit
// text, options, faults — everything needed to re-run it), the unit cut of
// its pass, each completed unit with its outcomes, and the terminal state.
// On startup the coordinator replays incomplete ledgers: the job is rebuilt,
// recorded unit completions are applied without re-dispatching them (no
// patterns are re-generated for already-merged units), and only the
// remainder is leased out.  Replay is sound because the unit cut is a
// deterministic function of the job's options and faults, and a recorded
// unit goes through the checks and the apply path a live report does.
//
// A pass record starts the unit list afresh: a coordinator that finds a
// recorded cut other than the one it computes records its own, and the
// units recorded under the old cut never replay again.
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
// A live journal holds only the job record, its cut and the units' first
// completions (a duplicate completion applies nothing, so it is never
// journaled), besides debris of torn appends.  Resume compacts every
// journal (CompactLedgerFile) to its replayable content: terminal jobs
// shrink to a two-line stub, live jobs keep the pass record and one record
// per distinct completed unit under it (first completion wins, mirroring
// replay), and torn debris goes.

// ledgerVersion is the format version of the ledgers this build writes,
// and the only one it resumes.  A change to what a record holds, or to how
// replay reads it, takes the next version.
const ledgerVersion = 1

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
	T string `json:"t"` // "job", "pass", "unit" or "state"

	// T == "job"
	Version int         `json:"version,omitempty"`
	ID      string      `json:"id,omitempty"`
	Name    string      `json:"name,omitempty"`
	Hash    string      `json:"hash,omitempty"`
	Bench   string      `json:"bench,omitempty"`
	Options *JobOptions `json:"options,omitempty"`
	Faults  []WireFault `json:"faults,omitempty"`

	// T == "pass"
	Spec  *WireSpec `json:"spec,omitempty"`
	Units [][]int   `json:"units,omitempty"`

	// T == "unit"
	Unit     int           `json:"unit"`
	Worker   string        `json:"worker,omitempty"`
	Outcomes []WireOutcome `json:"outcomes,omitempty"`

	// T == "state"
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"` // why a failed job failed
}

// Ledger appends the records of one job.  All methods are safe for
// concurrent use and a nil *Ledger is a valid no-op (persistence disabled).
type Ledger struct {
	mu    sync.Mutex
	f     *os.File
	torn  bool // last line on disk lacks its newline; resync before appending
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
	l := &Ledger{f: f}
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

// RecordPass records the unit cut of the job's pass.
func (l *Ledger) RecordPass(spec WireSpec, units [][]int) {
	l.append(ledgerRecord{T: "pass", Spec: &spec, Units: units})
}

// RecordUnit records one completed unit with its outcomes.
func (l *Ledger) RecordUnit(unit int, worker string, outcomes []WireOutcome) {
	l.append(ledgerRecord{T: "unit", Unit: unit, Worker: worker, Outcomes: outcomes})
}

// RecordState records a terminal state ("done", "canceled" or "failed")
// and, for a failed job, the reason.
func (l *Ledger) RecordState(state, reason string) {
	l.append(ledgerRecord{T: "state", State: state, Error: reason})
}

// CompactLedgerFile rewrites one job's ledger file to its replayable
// content (see renderCompact) when that is smaller; the coordinator runs it
// over every ledger on resume.  It returns the sizes before and after; a
// file that would not shrink is left untouched.
func CompactLedgerFile(path string) (before, after int64, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	before = fi.Size()
	lj, err := loadLedgerFile(path)
	if err != nil || lj == nil || lj.Err != nil {
		// No job record, or a line that does not decode: nothing safe to
		// rewrite.
		return before, before, err
	}
	snap := renderCompact(lj)
	if int64(len(snap)) >= before {
		return before, before, nil
	}
	tmp := path + ".compact"
	if err := os.WriteFile(tmp, snap, 0o644); err != nil {
		return before, before, err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return before, before, err
	}
	return before, int64(len(snap)), nil
}

// renderCompact serializes the snapshot form of a loaded ledger: terminal
// jobs keep only an identity stub and their state (enough for ID allocation
// and the resume skip); live jobs keep the full job record, the pass cut and
// the first completion of each unit recorded under it.
func renderCompact(lj *LedgerJob) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if lj.State != "" {
		_ = enc.Encode(ledgerRecord{T: "job", Version: ledgerVersion, ID: lj.ID, Name: lj.Name})
		_ = enc.Encode(ledgerRecord{T: "state", State: lj.State, Error: lj.Reason})
		return buf.Bytes()
	}
	opts := lj.Options
	_ = enc.Encode(ledgerRecord{
		T: "job", Version: ledgerVersion, ID: lj.ID, Name: lj.Name, Hash: lj.Hash, Bench: lj.Bench,
		Options: &opts, Faults: lj.Faults,
	})
	if lp := lj.Pass; lp != nil {
		spec := lp.Spec
		_ = enc.Encode(ledgerRecord{T: "pass", Spec: &spec, Units: lp.Units})
		done := make(map[int]bool)
		for _, lu := range lj.Units {
			if done[lu.Unit] {
				continue // duplicate completion: replay's first-wins drops it too
			}
			done[lu.Unit] = true
			_ = enc.Encode(ledgerRecord{T: "unit", Unit: lu.Unit, Worker: lu.Worker, Outcomes: lu.Outcomes})
		}
	}
	return buf.Bytes()
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
	// Err is the first complete line that does not decode, or a
	// *LedgerVersionError for a job record of another format version.  The
	// ledger is not replayable: resume records the job failed with this
	// error.  When the job record itself does not decode, ID comes from the
	// file name.
	Err error
	// Pass is the last recorded unit cut, nil when none was recorded, and
	// Units the unit completions recorded after it, in journal order.
	Pass  *LedgerPass
	Units []LedgerUnit
}

// LedgerPass is a recorded unit cut.
type LedgerPass struct {
	Spec  WireSpec
	Units [][]int
}

// LedgerUnit is a recorded unit completion.
type LedgerUnit struct {
	Unit     int
	Worker   string
	Outcomes []WireOutcome
}

// LoadLedgers reads every job ledger under dir, sorted by file name for a
// deterministic resume order.  Torn lines (see loadLedgerFile) are skipped;
// files without a job record are ignored unless a line failed to decode.
func LoadLedgers(dir string) ([]*LedgerJob, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	var out []*LedgerJob
	for _, path := range matches {
		lj, err := loadLedgerFile(path)
		if err != nil {
			return nil, fmt.Errorf("service: ledger %s: %w", path, err)
		}
		if lj != nil {
			out = append(out, lj)
		}
	}
	return out, nil
}

// loadLedgerFile reads one job's ledger.  Two kinds of line are torn writes
// and skipped: the final line when it lacks its newline (a crash
// mid-append), and a complete line that is a strict prefix of a record (a
// torn append that the next append sealed with a newline).  Any other line
// that does not decode sets LedgerJob.Err, and so does a job record of
// another format version; the job is then returned even without a job
// record, so resume can report it and reserve its ID.
func loadLedgerFile(path string) (*LedgerJob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
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
		// version says whether this build reads the ledger, and replay
		// reuses only the units of a pass whose recorded cut matches the
		// one the job computes now.
		var rec ledgerRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if !tail && !truncated(line) && bad == nil {
				bad = fmt.Errorf("ledger line %d does not decode: %w", n, err)
			}
			continue
		}
		switch rec.T {
		case "job":
			if rec.Version != ledgerVersion && bad == nil {
				bad = &LedgerVersionError{Version: rec.Version}
			}
			lj = &LedgerJob{
				ID:     rec.ID,
				Name:   rec.Name,
				Hash:   rec.Hash,
				Bench:  rec.Bench,
				Faults: rec.Faults,
			}
			if rec.Options != nil {
				lj.Options = *rec.Options
			}
		case "pass":
			if lj != nil && rec.Spec != nil {
				lj.Pass = &LedgerPass{Spec: *rec.Spec, Units: rec.Units}
				lj.Units = nil
			}
		case "unit":
			if lj != nil {
				lj.Units = append(lj.Units, LedgerUnit{Unit: rec.Unit, Worker: rec.Worker, Outcomes: rec.Outcomes})
			}
		case "state":
			state, reason = rec.State, rec.Error
		}
	}
	if bad != nil {
		if lj == nil {
			lj = &LedgerJob{ID: strings.TrimSuffix(filepath.Base(path), ".jsonl")}
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
