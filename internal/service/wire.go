// Package service is the distributed face of the generation engine: a
// coordinator that accepts ATPG jobs over HTTP/JSON, compiles each circuit
// once into a content-addressed cache, cuts every job's fault universe into
// the same scheduler work units a local run uses, and leases those units to
// remote workers under timeout-protected leases; workers stream verified
// patterns back through the coordinator for cross-worker dropping, and the
// coordinator feeds the reported outcomes through the core's canonical
// fault-order merge and static compaction, so a distributed run is
// bit-identical in statuses (and canonical in pattern order) to a
// single-process run with the same options whenever the interleaved
// simulation is off.  See docs/ARCHITECTURE.md "Service".
package service

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sensitize"
)

// API is the URL prefix of the coordinator's HTTP endpoints.
const API = "/api/v1"

// WireFault is a path delay fault in wire form: the path's nets by name,
// input to output, and the launch transition ("rising" or "falling").
type WireFault struct {
	Nets       []string `json:"nets"`
	Transition string   `json:"transition"`
}

// EncodeFault renders a fault with the circuit's net names.
func EncodeFault(c *circuit.Circuit, f paths.Fault) WireFault {
	nets := make([]string, len(f.Path.Nets))
	for i, n := range f.Path.Nets {
		nets[i] = c.NetName(n)
	}
	return WireFault{Nets: nets, Transition: f.Transition.String()}
}

// DecodeFault resolves a wire fault against the circuit and validates that
// the nets form a structural path.
func DecodeFault(c *circuit.Circuit, wf WireFault) (paths.Fault, error) {
	var t paths.Transition
	switch wf.Transition {
	case "rising":
		t = paths.Rising
	case "falling":
		t = paths.Falling
	default:
		return paths.Fault{}, fmt.Errorf("service: unknown transition %q (want rising or falling)", wf.Transition)
	}
	p := paths.Path{Nets: make([]circuit.NetID, len(wf.Nets))}
	for i, name := range wf.Nets {
		id := c.NetByName(name)
		if id == circuit.InvalidNet {
			return paths.Fault{}, fmt.Errorf("service: circuit %s has no net %q", c.Name, name)
		}
		p.Nets[i] = id
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
	WordWidth   int    `json:"word_width,omitempty"`   // 1..logic.MaxWordWidth; 0 = 64
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
		switch o.Mode {
		case "robust":
			mode = sensitize.Robust
		case "nonrobust":
			mode = sensitize.Nonrobust
		default:
			return core.Options{}, fmt.Errorf("service: unknown mode %q (want robust or nonrobust)", o.Mode)
		}
	}
	opts := core.DefaultOptions(mode)
	if o.WordWidth != 0 {
		if o.WordWidth < 1 || o.WordWidth > logic.MaxWordWidth {
			return core.Options{}, fmt.Errorf("service: word width %d out of range 1..%d", o.WordWidth, logic.MaxWordWidth)
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
	if o.Compact != "" {
		lvl, err := compact.ParseLevel(o.Compact)
		if err != nil {
			return core.Options{}, err
		}
		opts.Compaction = lvl
	}
	switch o.XFill {
	case "", "zero":
		// compact.ZeroFill is the normalize() default.
	case "one":
		opts.CompactionXFill = compact.OneFill()
	case "random":
		opts.CompactionXFill = compact.RandomFill(o.XFillSeed)
	default:
		return core.Options{}, fmt.Errorf("service: unknown xfill %q (want zero, one or random)", o.XFill)
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
	"pruning":    core.PhasePruning,
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

// WireSpec is the pass parameters a job ledger records with each pass: the
// word-parallel group width and the APTPG backtrack budget.  Resume compares
// it with the live pass to spot ledgers recorded under other parameters.
type WireSpec struct {
	Width  int `json:"width"`
	Budget int `json:"budget"`
}

// passSpec returns the pass parameters of a generator with the given
// (normalized) options.
func passSpec(o core.Options) WireSpec {
	return WireSpec{Width: o.WordWidth, Budget: o.MaxBacktracks}
}

// WireUnit is one leased work unit: its stable ID within the pass and the
// fault indices (into the job's fault list) it groups.  Workers process the
// unit whole — regrouping would change FPTPG batch composition and with it
// the outcomes.
type WireUnit struct {
	ID     int   `json:"id"`
	Faults []int `json:"faults"`
}

// WirePattern is one verified pattern in the cross-worker exchange: the
// publishing worker (so workers can skip their own) and the filled pair.
type WirePattern struct {
	Worker string `json:"worker"`
	Test   string `json:"test"`
}

// WireResult is one fault's result as reported to clients (events and final
// results).  PatternIndex refers to the job's merged, compacted test set; in
// settle events it is -1 (indices exist only after the merge).
type WireResult struct {
	Fault        WireFault `json:"fault"`
	Describe     string    `json:"describe"`
	Status       string    `json:"status"`
	Phase        string    `json:"phase,omitempty"`
	PatternIndex int       `json:"pattern_index"`
	Decisions    int       `json:"decisions,omitempty"`
	Backtracks   int       `json:"backtracks,omitempty"`
	Test         string    `json:"test,omitempty"`
	Err          string    `json:"err,omitempty"`
}

// EncodeResult renders a fault result for the wire.  patternIndex overrides
// the result's own index (settle events pass -1: merge indices do not exist
// yet when a fault settles).
func EncodeResult(c *circuit.Circuit, r core.FaultResult, patternIndex int) WireResult {
	w := WireResult{
		Fault:        EncodeFault(c, r.Fault),
		Describe:     r.Fault.Describe(c),
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
// inverse of EncodeResult, used by the atpg facade's remote engine).
func DecodeResult(c *circuit.Circuit, w WireResult) (core.FaultResult, error) {
	f, err := DecodeFault(c, w.Fault)
	if err != nil {
		return core.FaultResult{}, err
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
		Fault:        f,
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
		// Lease dispatch counters, accumulated over the job's passes.
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

	// LeaseResponse hands out a batch of whole units of one job's current
	// pass.  The worker must post results for each unit before the lease
	// TTL expires, or the units are requeued to other workers.
	LeaseResponse struct {
		JobID string     `json:"job_id"`
		Pass  int        `json:"pass"`
		Units []WireUnit `json:"units"`
		TTLMS int64      `json:"ttl_ms"`
		SimOn bool       `json:"sim_on"`
	}

	// JobSpec is what a worker needs to set up a job-local generator.
	JobSpec struct {
		JobID       string      `json:"job_id"`
		CircuitHash string      `json:"circuit_hash"`
		Options     JobOptions  `json:"options"`
		Faults      []WireFault `json:"faults"`
	}

	// UnitResult reports one processed unit: the leased unit (echoed so the
	// coordinator applies outcomes positionally) and one outcome per fault.
	UnitResult struct {
		ID       int           `json:"id"`
		Faults   []int         `json:"faults"`
		Outcomes []WireOutcome `json:"outcomes"`
	}

	// PostResults reports a batch of processed units, the verified patterns
	// the batch produced (for the cross-worker exchange) and the worker's
	// search-effort delta.
	PostResults struct {
		Worker   string        `json:"worker"`
		Pass     int           `json:"pass"`
		Units    []UnitResult  `json:"units"`
		Patterns []WirePattern `json:"patterns,omitempty"`
		Effort   core.Stats    `json:"effort"`
	}

	// PostResultsResponse tells the worker how the batch was received.
	// Stale means the pass (or the job) is over and the batch was discarded
	// — not an error, just at-least-once delivery meeting a finished pass.
	PostResultsResponse struct {
		Stale    bool `json:"stale,omitempty"`
		Canceled bool `json:"canceled,omitempty"`
	}

	// PatternsResponse is the exchange delta since the requested cursor.
	// Dropped counts patterns that aged out of the bounded exchange buffer
	// before this worker fetched them (backpressure, not an error: missing
	// foreign patterns only forgo drop opportunities).
	PatternsResponse struct {
		Patterns []WirePattern `json:"patterns"`
		Next     int           `json:"next"`
		Dropped  int           `json:"dropped,omitempty"`
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
