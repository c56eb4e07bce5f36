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

// WireOutcome is a core.RemoteOutcome in wire form: status and phase by
// name, patterns in the "V1 -> V2" text notation.
type WireOutcome struct {
	Status     string `json:"status"`
	Phase      string `json:"phase,omitempty"`
	Decisions  int    `json:"decisions,omitempty"`
	Backtracks int    `json:"backtracks,omitempty"`
	Test       string `json:"test,omitempty"`
	Raw        string `json:"raw,omitempty"`
}

// statusNames matches core.Status.String.
var statusNames = map[string]core.Status{
	"pending":                core.Pending,
	"tested":                 core.Tested,
	"redundant":              core.Redundant,
	"aborted":                core.Aborted,
	"detected-by-simulation": core.DetectedBySim,
}

// phaseNames matches core.Phase.String.
var phaseNames = map[string]core.Phase{
	"none":       core.PhaseNone,
	"fptpg":      core.PhaseFPTPG,
	"aptpg":      core.PhaseAPTPG,
	"simulation": core.PhaseSimulation,
}

// EncodeOutcome renders a remote outcome for the wire.
func EncodeOutcome(o core.RemoteOutcome) WireOutcome {
	w := WireOutcome{
		Status:     o.Status.String(),
		Phase:      o.Phase.String(),
		Decisions:  o.Decisions,
		Backtracks: o.Backtracks,
	}
	if o.Status == core.Tested {
		w.Test = o.Test.String()
		if o.Raw.Len() > 0 {
			w.Raw = o.Raw.String()
		}
	}
	return w
}

// DecodeOutcome parses a wire outcome.
func DecodeOutcome(w WireOutcome) (core.RemoteOutcome, error) {
	st, ok := statusNames[w.Status]
	if !ok {
		return core.RemoteOutcome{}, fmt.Errorf("service: unknown status %q", w.Status)
	}
	ph, ok := phaseNames[w.Phase]
	if !ok && w.Phase != "" {
		return core.RemoteOutcome{}, fmt.Errorf("service: unknown phase %q", w.Phase)
	}
	o := core.RemoteOutcome{Status: st, Phase: ph, Decisions: w.Decisions, Backtracks: w.Backtracks}
	if st == core.Tested {
		p, err := pattern.ParsePair(w.Test)
		if err != nil {
			return core.RemoteOutcome{}, fmt.Errorf("service: bad test pattern: %w", err)
		}
		o.Test = p
		if w.Raw != "" {
			raw, err := pattern.ParsePair(w.Raw)
			if err != nil {
				return core.RemoteOutcome{}, fmt.Errorf("service: bad raw pattern: %w", err)
			}
			o.Raw = raw
		}
	}
	return o, nil
}

// DecodeOutcomes maps DecodeOutcome over a list.
func DecodeOutcomes(ws []WireOutcome) ([]core.RemoteOutcome, error) {
	out := make([]core.RemoteOutcome, len(ws))
	for i, w := range ws {
		o, err := DecodeOutcome(w)
		if err != nil {
			return nil, fmt.Errorf("outcome %d: %w", i, err)
		}
		out[i] = o
	}
	return out, nil
}

// WireSpec is the pass parameters a job ledger records with the job's unit
// cut: the word-parallel group width and the APTPG backtrack budget.  Resume
// compares it with the live pass to spot ledgers recorded under other
// parameters.
type WireSpec struct {
	Width  int `json:"width"`
	Budget int `json:"budget"`
}

// passSpec returns the pass parameters of a generator with the given
// (normalized) options.
func passSpec(o core.Options) WireSpec {
	return WireSpec{Width: o.WordWidth, Budget: o.MaxBacktracks}
}

// WireUnit is one leased work unit: its stable ID within the job's unit cut
// and the fault indices (into the job's fault list) it groups.  Workers
// process the unit whole — regrouping would change FPTPG batch composition
// and with it the outcomes.
type WireUnit struct {
	ID     int   `json:"id"`
	Faults []int `json:"faults"`
}

// unitsPerLease is the batch a worker asks for in each lease request, and
// the coordinator's batch for a request that names none: leasing several
// units per round trip spreads the wire latency over more generation work.
const unitsPerLease = 4

// WireResult is one fault's result as reported to clients (events and final
// results).  Index is the fault's position in the job's fault list: the
// client holds that list (it submitted it), so the fault itself is not sent
// back.  PatternIndex refers to the job's merged, compacted test set; in
// settle events it is -1 (indices exist only after the merge).
type WireResult struct {
	Index        int    `json:"index"`
	Status       string `json:"status"`
	Phase        string `json:"phase,omitempty"`
	PatternIndex int    `json:"pattern_index"`
	Decisions    int    `json:"decisions,omitempty"`
	Backtracks   int    `json:"backtracks,omitempty"`
	Test         string `json:"test,omitempty"`
	Err          string `json:"err,omitempty"`
}

// EncodeResult renders the result of the job's index-th fault for the wire.
// patternIndex overrides the result's own index (settle events pass -1:
// merge indices do not exist yet when a fault settles).
func EncodeResult(index int, r core.FaultResult, patternIndex int) WireResult {
	w := WireResult{
		Index:        index,
		Status:       r.Status.String(),
		Phase:        r.Phase.String(),
		PatternIndex: patternIndex,
		Decisions:    r.Decisions,
		Backtracks:   r.Backtracks,
	}
	if r.Status == core.Tested {
		w.Test = r.Test.String()
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return w
}

// DecodeResult parses a wire result back into a core fault result (the
// inverse of EncodeResult, used by the atpg facade's remote engine).  faults
// is the job's fault list, as submitted; the result's fault is the one at
// its index, and an index outside the list is an error.
func DecodeResult(faults []paths.Fault, w WireResult) (core.FaultResult, error) {
	if w.Index < 0 || w.Index >= len(faults) {
		return core.FaultResult{}, fmt.Errorf("service: result index %d out of range for %d faults", w.Index, len(faults))
	}
	st, ok := statusNames[w.Status]
	if !ok {
		return core.FaultResult{}, fmt.Errorf("service: unknown status %q", w.Status)
	}
	ph, ok := phaseNames[w.Phase]
	if !ok && w.Phase != "" {
		return core.FaultResult{}, fmt.Errorf("service: unknown phase %q", w.Phase)
	}
	r := core.FaultResult{
		Fault:        faults[w.Index],
		Status:       st,
		Phase:        ph,
		PatternIndex: w.PatternIndex,
		Decisions:    w.Decisions,
		Backtracks:   w.Backtracks,
	}
	if w.Test != "" {
		p, err := pattern.ParsePair(w.Test)
		if err != nil {
			return core.FaultResult{}, fmt.Errorf("service: bad test pattern: %w", err)
		}
		r.Test = p
	}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	return r, nil
}

// DecodeResults decodes a finished job's results against the job's fault
// list: one result per fault, each at its own index.
func DecodeResults(faults []paths.Fault, ws []WireResult) ([]core.FaultResult, error) {
	if len(ws) != len(faults) {
		return nil, fmt.Errorf("service: %d results for %d faults", len(ws), len(faults))
	}
	out := make([]core.FaultResult, len(ws))
	for i, w := range ws {
		if w.Index != i {
			return nil, fmt.Errorf("service: result %d carries index %d", i, w.Index)
		}
		r, err := DecodeResult(faults, w)
		if err != nil {
			return nil, fmt.Errorf("result %d: %w", i, err)
		}
		out[i] = r
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

	// JobSpec is what a worker needs to set up a job-local generator.
	JobSpec struct {
		JobID       string      `json:"job_id"`
		CircuitHash string      `json:"circuit_hash"`
		Options     JobOptions  `json:"options"`
		Faults      []WireFault `json:"faults"`
	}

	// UnitResult reports one processed unit: the leased unit's ID and one
	// outcome per fault, in the unit's fault order.
	UnitResult struct {
		ID       int           `json:"id"`
		Outcomes []WireOutcome `json:"outcomes"`
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

	// EventsResponse is a page of settle events starting at cursor From.
	EventsResponse struct {
		Events []WireResult `json:"events"`
		Next   int          `json:"next"`
		Done   bool         `json:"done"`
	}

	// ResultsResponse is a finished job's full outcome: input-ordered
	// results, the merged (and compacted) test set in pattern.Set text form,
	// and the aggregated statistics.
	ResultsResponse struct {
		JobID   string       `json:"job_id"`
		State   string       `json:"state"`
		Results []WireResult `json:"results"`
		Tests   string       `json:"tests"`
		Stats   core.Stats   `json:"stats"`
	}

	// ErrorResponse is the body of every non-2xx response.
	ErrorResponse struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
)
