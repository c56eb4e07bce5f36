// Package service is the distributed face of the generation engine: a
// coordinator that accepts ATPG jobs over HTTP/JSON, compiles each circuit
// once into a content-addressed cache, cuts every job's fault universe into
// the same scheduler work units a local run uses, and leases those units to
// remote workers under timeout-protected leases; the coordinator feeds the
// reported outcomes through the core's canonical fault-order merge and
// static compaction, and hands each worker the tests the others reported
// for cross-worker dropping, so a distributed run is
// bit-identical in statuses (and canonical in pattern order) to a
// single-process run with the same options whenever the interleaved
// simulation is off.  See docs/ARCHITECTURE.md "Service".
package service

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sensitize"
)

// API is the URL prefix of the coordinator's HTTP endpoints.
const API = "/api/v1"

// WireFault is a path delay fault in wire form: the launch transition
// ("rising" or "falling"), then the path's nets by name, input to output,
// separated by single spaces, e.g. "rising N1 N22 N45".  Net names carry no
// whitespace (ParseBench refuses them), so the form splits unambiguously.
// Names, not net IDs, are the identity on the wire: a client's circuit may
// number its nets differently from the coordinator's compile of the same
// bench text.
type WireFault string

// EncodeFault renders a fault with the circuit's net names.
func EncodeFault(c *circuit.Circuit, f paths.Fault) WireFault {
	t := f.Transition.String()
	n := len(t)
	for _, id := range f.Path.Nets {
		n += 1 + len(c.NetName(id))
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString(t)
	for _, id := range f.Path.Nets {
		sb.WriteByte(' ')
		sb.WriteString(c.NetName(id))
	}
	return WireFault(sb.String())
}

// DecodeFault resolves a wire fault against the circuit and validates that
// the nets form a structural path.  Every malformed string is an error: an
// unknown transition, no nets, an empty name (a leading, trailing or doubled
// space) or a name the circuit does not have.
func DecodeFault(c *circuit.Circuit, wf WireFault) (paths.Fault, error) {
	s := string(wf)
	sp := strings.IndexByte(s, ' ')
	if sp < 0 {
		return paths.Fault{}, fmt.Errorf("service: fault %q names no nets", s)
	}
	var t paths.Transition
	switch s[:sp] {
	case "rising":
		t = paths.Rising
	case "falling":
		t = paths.Falling
	default:
		return paths.Fault{}, fmt.Errorf("service: unknown transition %q (want rising or falling)", s[:sp])
	}
	rest := s[sp+1:]
	p := paths.Path{Nets: make([]circuit.NetID, 0, strings.Count(rest, " ")+1)}
	for {
		name, tail, more := strings.Cut(rest, " ")
		if name == "" {
			return paths.Fault{}, fmt.Errorf("service: fault %q has an empty net name", s)
		}
		id := c.NetByName(name)
		if id == circuit.InvalidNet {
			return paths.Fault{}, fmt.Errorf("service: circuit %s has no net %q", c.Name, name)
		}
		p.Nets = append(p.Nets, id)
		if !more {
			break
		}
		rest = tail
	}
	if err := p.Validate(c); err != nil {
		return paths.Fault{}, fmt.Errorf("service: invalid fault path: %w", err)
	}
	return paths.Fault{Path: p, Transition: t}, nil
}

// EncodeFaults maps EncodeFault over a fault list.
func EncodeFaults(c *circuit.Circuit, faults []paths.Fault) []WireFault {
	out := make([]WireFault, len(faults))
	for i, f := range faults {
		out[i] = EncodeFault(c, f)
	}
	return out
}

// DecodeFaults maps DecodeFault over a wire fault list.
func DecodeFaults(c *circuit.Circuit, wfs []WireFault) ([]paths.Fault, error) {
	out := make([]paths.Fault, len(wfs))
	for i, wf := range wfs {
		f, err := DecodeFault(c, wf)
		if err != nil {
			return nil, fmt.Errorf("fault %d: %w", i, err)
		}
		out[i] = f
	}
	return out, nil
}

// JobOptions mirror the engine options of the atpg facade in wire form.
// Zero values select the engine defaults (robust mode, full word width, both
// phases on, simulation after every L patterns), so an empty object is a
// valid configuration; the No* spellings keep "enabled" the zero value.
type JobOptions struct {
	Mode        string `json:"mode,omitempty"`         // "robust" (default) or "nonrobust"
	WordWidth   int    `json:"word_width,omitempty"`   // 1..core.MaxWordWidth (unit size; searches run on at most 64 levels); 0 = 64
	Backtracks  int    `json:"backtracks,omitempty"`   // APTPG backtrack limit; 0 = default
	NoFPTPG     bool   `json:"no_fptpg,omitempty"`     // disable the fault-parallel phase
	NoAPTPG     bool   `json:"no_aptpg,omitempty"`     // disable the alternative-parallel phase
	SimInterval *int   `json:"sim_interval,omitempty"` // nil = word width; 0 disables
	Compact     string `json:"compact,omitempty"`      // "none" (default), "reverse" or "full"
	XFill       string `json:"xfill,omitempty"`        // "zero" (default), "one" or "random"
	XFillSeed   int64  `json:"xfill_seed,omitempty"`   // seed of the random X-fill
}

// ToCore resolves the wire options into normalized core options.
func (o JobOptions) ToCore() (core.Options, error) {
	mode := sensitize.Robust
	if o.Mode != "" {
		var err error
		if mode, err = sensitize.ParseMode(o.Mode); err != nil {
			return core.Options{}, err
		}
	}
	opts := core.DefaultOptions(mode)
	if o.WordWidth != 0 {
		if o.WordWidth < 1 || o.WordWidth > core.MaxWordWidth {
			return core.Options{}, fmt.Errorf("service: word width %d out of range 1..%d", o.WordWidth, core.MaxWordWidth)
		}
		opts.WordWidth = o.WordWidth
	}
	if o.Backtracks != 0 {
		if o.Backtracks < 1 {
			return core.Options{}, fmt.Errorf("service: backtrack limit %d out of range", o.Backtracks)
		}
		opts.MaxBacktracks = o.Backtracks
	}
	opts.UseFPTPG = !o.NoFPTPG
	opts.UseAPTPG = !o.NoAPTPG
	if o.SimInterval != nil {
		if *o.SimInterval < 0 {
			return core.Options{}, fmt.Errorf("service: negative fault-simulation interval %d", *o.SimInterval)
		}
		opts.FaultSimInterval = *o.SimInterval
	} else {
		opts.FaultSimInterval = opts.WordWidth
	}
	var err error
	if opts.Compaction, err = compact.ParseLevel(o.Compact); err != nil {
		return core.Options{}, err
	}
	if opts.CompactionXFill, err = compact.ParseFill(o.XFill, o.XFillSeed); err != nil {
		return core.Options{}, err
	}
	return opts, nil
}

// WireOptions renders resolved core options in wire form, every field
// explicit: ToCore's inverse.  The wire carries exactly the option surface
// of the atpg facade, so nothing is lost: ToCore of the rendering returns the
// options, up to what core.New derives from them (EmitUnfilled).  A job
// records and serves its options in this form, so no default of another
// build can re-resolve them.
func WireOptions(opts core.Options) JobOptions {
	sim := opts.FaultSimInterval
	return JobOptions{
		Mode:        opts.Mode.String(),
		WordWidth:   opts.WordWidth,
		Backtracks:  opts.MaxBacktracks,
		NoFPTPG:     !opts.UseFPTPG,
		NoAPTPG:     !opts.UseAPTPG,
		SimInterval: &sim,
		Compact:     opts.Compaction.String(),
		XFill:       opts.CompactionXFill.Name(),
		XFillSeed:   opts.CompactionXFill.Seed(),
	}
}

// The status and phase codes of the outcome and result columns: one byte
// per fault, the first letter of core.Status.String and core.Phase.String.
// A status's or phase's value is its position in the string; the generator
// settles no fault under core.PhasePruning, which has none.
const (
	statusCodes = "ptrad" // pending, tested, redundant, aborted, detected-by-simulation
	phaseCodes  = "nfas"  // none, fptpg, aptpg, simulation
)

// OutcomeColumns are a unit's outcomes in wire form, one column per field
// and one entry per fault, in the unit's fault order: a results post carries
// them, and so does the ledger's record of a completed unit.  Status and
// Phase hold one code byte per fault (statusCodes, phaseCodes); Tests holds
// the "V1 -> V2" text of the Tested faults' tests, in order, and Raws their
// X-preserving forms when the options track them (Options.EmitUnfilled),
// else nothing.
type OutcomeColumns struct {
	Status     string   `json:"status"`
	Phase      string   `json:"phase"`
	Decisions  []int    `json:"decisions"`
	Backtracks []int    `json:"backtracks"`
	Tests      []string `json:"tests,omitempty"`
	Raws       []string `json:"raws,omitempty"`
}

// outcomeColumns renders a unit's outcomes for the wire.
func outcomeColumns(outs []core.RemoteOutcome) OutcomeColumns {
	return columnsOf(len(outs), func(k int) core.RemoteOutcome { return outs[k] })
}

// columnsOf renders n outcomes, the k-th of which row returns, as columns.
// A generator records the raw form of every Tested fault's test or of none,
// so Raws holds one per Tested fault or is empty.
func columnsOf(n int, row func(k int) core.RemoteOutcome) OutcomeColumns {
	status, phase := make([]byte, n), make([]byte, n)
	oc := OutcomeColumns{Decisions: make([]int, n), Backtracks: make([]int, n)}
	for k := range n {
		o := row(k)
		status[k], phase[k] = statusCodes[o.Status], phaseCodes[o.Phase]
		oc.Decisions[k], oc.Backtracks[k] = o.Decisions, o.Backtracks
		if o.Status == core.Tested {
			oc.Tests = append(oc.Tests, o.Test.String())
			if o.Raw.Len() > 0 {
				oc.Raws = append(oc.Raws, o.Raw.String())
			}
		}
	}
	oc.Status, oc.Phase = string(status), string(phase)
	return oc
}

// decode checks the columns as the outcomes of n faults and calls row with
// each outcome, in order.  Every column must hold n entries, every code must
// be known, Tests must hold exactly one pattern per Tested fault and Raws
// none or one per Tested fault, and every pattern must parse.  A failure
// stops the walk: the caller discards what row saw.
func (oc *OutcomeColumns) decode(n int, row func(k int, o core.RemoteOutcome)) error {
	if len(oc.Status) != n || len(oc.Phase) != n || len(oc.Decisions) != n || len(oc.Backtracks) != n {
		return fmt.Errorf("service: columns of %d status, %d phase, %d decisions and %d backtracks entries for %d faults",
			len(oc.Status), len(oc.Phase), len(oc.Decisions), len(oc.Backtracks), n)
	}
	if len(oc.Raws) != 0 && len(oc.Raws) != len(oc.Tests) {
		return fmt.Errorf("service: %d raw patterns for %d tests", len(oc.Raws), len(oc.Tests))
	}
	tested := 0
	for k := 0; k < n; k++ {
		st := strings.IndexByte(statusCodes, oc.Status[k])
		if st < 0 {
			return fmt.Errorf("service: outcome %d: unknown status code %q", k, oc.Status[k])
		}
		ph := strings.IndexByte(phaseCodes, oc.Phase[k])
		if ph < 0 {
			return fmt.Errorf("service: outcome %d: unknown phase code %q", k, oc.Phase[k])
		}
		o := core.RemoteOutcome{Status: core.Status(st), Phase: core.Phase(ph), Decisions: oc.Decisions[k], Backtracks: oc.Backtracks[k]}
		if o.Status == core.Tested {
			if tested == len(oc.Tests) {
				return fmt.Errorf("service: more tested outcomes than the %d tests", len(oc.Tests))
			}
			var err error
			if o.Test, err = pattern.ParsePair(oc.Tests[tested]); err != nil {
				return fmt.Errorf("service: outcome %d: bad test pattern: %w", k, err)
			}
			if len(oc.Raws) > 0 {
				if o.Raw, err = pattern.ParsePair(oc.Raws[tested]); err != nil {
					return fmt.Errorf("service: outcome %d: bad raw pattern: %w", k, err)
				}
			}
			tested++
		}
		row(k, o)
	}
	if tested != len(oc.Tests) {
		return fmt.Errorf("service: %d tests for %d tested outcomes", len(oc.Tests), tested)
	}
	return nil
}

// outcomes decodes the columns as the outcomes of a unit of n faults (see
// decode).
func (oc *OutcomeColumns) outcomes(n int) ([]core.RemoteOutcome, error) {
	out := make([]core.RemoteOutcome, n)
	if err := oc.decode(n, func(k int, o core.RemoteOutcome) { out[k] = o }); err != nil {
		return nil, err
	}
	return out, nil
}

// WireUnit is one leased work unit: its stable ID within the job's unit cut
// and the faults it groups, in wire form, as the job's submitted list holds
// them.  A lease is the only way a fault reaches a worker, so each crosses
// the wire once per lease of its unit.  Workers process the unit whole —
// regrouping would change FPTPG batch composition and with it the outcomes.
type WireUnit struct {
	ID     int         `json:"id"`
	Faults []WireFault `json:"faults"`
}

// unitsPerLease is the batch a worker asks for in each lease request, and
// the coordinator's batch for a request that names none: leasing several
// units per round trip spreads the wire latency over more generation work.
const unitsPerLease = 4

// ResultColumns are faults' results as reported to clients, in final
// results and in settle-event pages: the outcome columns (Raws stays empty)
// plus each row's pattern index, fault index and error.  Index holds each
// row's fault as its position in the job's fault list: the client holds
// that list (it submitted it), so the fault itself is not sent back.  The
// final results leave Index empty, which means fault order: row k is fault
// k.  PatternIndex refers to the job's merged, compacted test set; in settle
// events it is -1 (indices exist only after the merge).  Errs maps a row to
// its fault's error, for the few that carry one.
type ResultColumns struct {
	OutcomeColumns
	PatternIndex []int          `json:"pattern_index"`
	Index        []int          `json:"index,omitempty"`
	Errs         map[int]string `json:"errs,omitempty"`
}

// resultColumns renders results for the wire: index holds each result's
// position in the job's fault list, or is nil for results in fault order.
func resultColumns(index []int, results []core.FaultResult) ResultColumns {
	rc := ResultColumns{
		OutcomeColumns: columnsOf(len(results), func(k int) core.RemoteOutcome {
			r := &results[k]
			return core.RemoteOutcome{Status: r.Status, Phase: r.Phase, Decisions: r.Decisions, Backtracks: r.Backtracks, Test: r.Test}
		}),
		PatternIndex: make([]int, len(results)),
		Index:        index,
	}
	for k, r := range results {
		rc.PatternIndex[k] = r.PatternIndex
		if r.Err != nil {
			if rc.Errs == nil {
				rc.Errs = make(map[int]string)
			}
			rc.Errs[k] = r.Err.Error()
		}
	}
	return rc
}

// DecodeFinal parses a finished job's results into core fault results (the
// inverse of the coordinator's rendering, used by the atpg facade's remote
// engine).  faults is the job's fault list, as submitted.  The rows must be
// in fault order, Index empty and exactly one row per fault: row k is fault
// k.  A column of another length and everything the outcome columns refuse
// (see decode) are errors.
func (rc *ResultColumns) DecodeFinal(faults []paths.Fault) ([]core.FaultResult, error) {
	switch {
	case len(rc.Index) != 0:
		return nil, fmt.Errorf("service: final results carry %d fault indices, want none (fault order)", len(rc.Index))
	case len(rc.Status) != len(faults):
		return nil, fmt.Errorf("service: %d results for %d faults", len(rc.Status), len(faults))
	}
	return rc.rows(faults)
}

// DecodePage parses a page of settle events into core fault results.  faults
// is the job's fault list, as submitted: row k's fault is the one at
// Index[k], so Index must hold one entry per row, each within the list.  A
// column of another length and everything the outcome columns refuse (see
// decode) are errors too.
func (rc *ResultColumns) DecodePage(faults []paths.Fault) ([]core.FaultResult, error) {
	if len(rc.Index) != len(rc.Status) {
		return nil, fmt.Errorf("service: %d fault indices for %d results", len(rc.Index), len(rc.Status))
	}
	for k, fi := range rc.Index {
		if fi < 0 || fi >= len(faults) {
			return nil, fmt.Errorf("service: result %d: fault index %d out of range for %d faults", k, fi, len(faults))
		}
	}
	return rc.rows(faults)
}

// rows decodes the columns' rows once their count and Index are checked:
// row k's fault is faults[Index[k]], or faults[k] when Index is empty.
func (rc *ResultColumns) rows(faults []paths.Fault) ([]core.FaultResult, error) {
	n := len(rc.Status)
	if len(rc.PatternIndex) != n {
		return nil, fmt.Errorf("service: %d pattern indices for %d results", len(rc.PatternIndex), n)
	}
	out := make([]core.FaultResult, n)
	err := rc.decode(n, func(k int, o core.RemoteOutcome) {
		fi := k
		if len(rc.Index) != 0 {
			fi = rc.Index[k]
		}
		out[k] = core.FaultResult{
			Fault:        faults[fi],
			Status:       o.Status,
			Phase:        o.Phase,
			Test:         o.Test,
			PatternIndex: rc.PatternIndex[k],
			Decisions:    o.Decisions,
			Backtracks:   o.Backtracks,
		}
	})
	if err != nil {
		return nil, err
	}
	for k, msg := range rc.Errs {
		if k < 0 || k >= n {
			return nil, fmt.Errorf("service: error of result %d out of range for %d results", k, n)
		}
		out[k].Err = errors.New(msg)
	}
	return out, nil
}

// Request and response bodies of the coordinator API.
type (
	// SubmitRequest creates a job.  CircuitBench may be omitted when the
	// coordinator already holds the circuit under CircuitHash (the cache-hit
	// fast path); submitting with only an unknown hash yields HTTP 409 and
	// the client retries with the bench text.  Either CircuitHash or
	// CircuitBench must be set.
	SubmitRequest struct {
		Name         string      `json:"name,omitempty"`
		CircuitHash  string      `json:"circuit_hash,omitempty"`
		CircuitBench string      `json:"circuit_bench,omitempty"`
		Options      JobOptions  `json:"options"`
		Faults       []WireFault `json:"faults"`
	}

	SubmitResponse struct {
		JobID       string `json:"job_id"`
		CircuitHash string `json:"circuit_hash"`
		CacheHit    bool   `json:"cache_hit"`
		Faults      int    `json:"faults"`
	}

	// JobStatus reports a job's lifecycle state and dispatch counters.
	JobStatus struct {
		JobID    string `json:"job_id"`
		Name     string `json:"name,omitempty"`
		State    string `json:"state"` // queued, running, done, canceled, failed
		Error    string `json:"error,omitempty"`
		Faults   int    `json:"faults"`
		Settled  int    `json:"settled"`
		CacheHit bool   `json:"cache_hit"`
		// Lease dispatch counters of the job's pass.
		Leases     int `json:"leases"`
		Requeues   int `json:"requeues"`
		Duplicates int `json:"duplicates"`
		// Replayed counts units restored from the ledger on resume: their
		// outcomes were applied without re-dispatching any work.
		Replayed int `json:"replayed,omitempty"`
	}

	// LeaseRequest asks for up to MaxUnits units of any running job.  With
	// WaitMS set, the coordinator holds the request until a unit is
	// leasable or that many milliseconds pass (capped at 30 s); without it,
	// an empty queue answers 204 at once.
	LeaseRequest struct {
		Worker   string `json:"worker"`
		MaxUnits int    `json:"max_units,omitempty"`
		WaitMS   int    `json:"wait_ms,omitempty"`
	}

	// LeaseResponse hands out a batch of whole units of one job.  The
	// worker must post results for each unit before the lease TTL expires,
	// or the units are requeued to other workers.  On a job that simulates,
	// Patterns carries the tests the job's other workers reported since
	// this worker's previous lease of the job, for its claim sweep.
	LeaseResponse struct {
		JobID    string     `json:"job_id"`
		Units    []WireUnit `json:"units"`
		Patterns []string   `json:"patterns,omitempty"`
	}

	// JobSpec is what a worker needs to set up a job-local generator.  The
	// faults are not in it: each reaches the worker on the lease of its unit.
	JobSpec struct {
		JobID       string     `json:"job_id"`
		CircuitHash string     `json:"circuit_hash"`
		Options     JobOptions `json:"options"`
	}

	// UnitResult reports one processed unit: the leased unit's ID and one
	// outcome per fault, in the unit's fault order.
	UnitResult struct {
		ID       int            `json:"id"`
		Outcomes OutcomeColumns `json:"outcomes"`
	}

	// PostResults reports a batch of processed units and the search effort
	// they took.
	PostResults struct {
		Worker string       `json:"worker"`
		Units  []UnitResult `json:"units"`
		Effort core.Effort  `json:"effort"`
	}

	// PostResultsResponse tells the worker how the batch was received.
	// Stale means the job's pass is over and the batch was discarded — not
	// an error, just at-least-once delivery meeting a finished pass.
	PostResultsResponse struct {
		Stale    bool `json:"stale,omitempty"`
		Canceled bool `json:"canceled,omitempty"`
	}

	// EventsResponse is a page of settle events starting at cursor From:
	// one row per fault settled, in settle order, each with its index.
	EventsResponse struct {
		Events ResultColumns `json:"events"`
		Next   int           `json:"next"`
		Done   bool          `json:"done"`
	}

	// ResultsResponse is a finished job's full outcome: the results in
	// fault order (their Index left empty), the merged (and compacted) test
	// set in pattern.Set text form, and the aggregated statistics.
	ResultsResponse struct {
		JobID   string        `json:"job_id"`
		State   string        `json:"state"`
		Results ResultColumns `json:"results"`
		Tests   string        `json:"tests"`
		Stats   core.Stats    `json:"stats"`
	}

	// ErrorResponse is the body of every non-2xx response.
	ErrorResponse struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
)
