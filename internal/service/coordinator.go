package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// Job lifecycle states.
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateCanceled = "canceled"
	stateFailed   = "failed"
)

var (
	// errShutdown cancels jobs on coordinator shutdown.  It deliberately
	// records no terminal ledger state, so a restarted coordinator resumes
	// the job from its ledger instead of reporting it canceled.
	errShutdown = errors.New("service: coordinator shutting down")
	// errClientCancel cancels a job on the client's request; the job lands
	// in the terminal "canceled" state.
	errClientCancel = errors.New("service: job canceled by client")
)

// Config tunes a Coordinator.  The zero value selects sane defaults
// everywhere and disables the ledger (jobs are not resumable).
type Config struct {
	// LeaseTTL bounds how long a worker may sit on a leased unit before it
	// is requeued to someone else.  Default 30s.
	LeaseTTL time.Duration
	// ExpireInterval is the requeue sweep period.  Default LeaseTTL/4.
	ExpireInterval time.Duration
	// ExchangeCap bounds the cross-worker pattern exchange buffer per job;
	// older patterns age out (workers merely lose drop opportunities).
	// Default 4096.
	ExchangeCap int
	// MaxActive bounds how many jobs generate concurrently; the rest queue.
	// Default 4.
	MaxActive int
	// CacheSize bounds the compiled-circuit cache.  Default 64.
	CacheSize int
	// UnitsPerLease is the default batch size when a lease request does not
	// name one.  Default 4.
	UnitsPerLease int
	// LedgerDir, when set, persists a JSONL unit ledger per job and resumes
	// incomplete jobs on startup.
	LedgerDir string
	// CompactWatermark triggers a snapshot-and-truncate of a job's ledger
	// once its journal crosses this many bytes (ledgers are also compacted
	// on resume).  0 selects the 16MB default; negative disables live
	// compaction.
	CompactWatermark int64
	// Clock overrides the lease clock (leases, expiry sweeps).  nil means
	// time.Now; the chaos injector's skewed clock enters here.
	Clock func() time.Time
	// Chaos, when set, injects the configured coordinator-side faults:
	// torn ledger appends, and (unless Clock is set explicitly) the
	// lease-clock expiry storm.
	Chaos *chaos.Injector
}

func (cfg Config) withDefaults() Config {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.ExpireInterval <= 0 {
		cfg.ExpireInterval = cfg.LeaseTTL / 4
		if cfg.ExpireInterval < 50*time.Millisecond {
			cfg.ExpireInterval = 50 * time.Millisecond
		}
	}
	if cfg.ExchangeCap <= 0 {
		cfg.ExchangeCap = 4096
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 4
	}
	if cfg.UnitsPerLease <= 0 {
		cfg.UnitsPerLease = 4
	}
	if cfg.CompactWatermark == 0 {
		cfg.CompactWatermark = 16 << 20
	}
	if cfg.Clock == nil {
		cfg.Clock = cfg.Chaos.Clock() // nil injector yields time.Now
	}
	return cfg
}

// Coordinator is the service's brain: it owns the compiled-circuit cache and
// the multi-tenant job queue, cuts each job's fault universe into the exact
// work units a local run would use, leases them to workers, folds reported
// outcomes through core.RemoteRun (canonical merge + compaction) and serves
// the whole lifecycle over HTTP.  It implements http.Handler.
type Coordinator struct {
	cfg   Config
	cache *Cache
	mux   *http.ServeMux

	ctx  context.Context
	stop context.CancelCauseFunc
	sem  chan struct{} // bounds concurrently generating jobs
	wg   sync.WaitGroup

	// work fires whenever units may have become leasable: a pass starts or
	// the expiry sweep requeues units.  Parked leases wait on it.
	work broadcast
	// drain is closed when shutdown begins (BeginShutdown).
	drain     chan struct{}
	drainOnce sync.Once

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order; leases scan oldest-first
	nextID int
}

// job is one submitted ATPG run.
type job struct {
	id       string
	name     string
	hash     string
	cacheHit bool

	wireOpts   JobOptions
	coreOpts   core.Options
	wireFaults []WireFault
	faults     []paths.Fault
	c          *circuit.Circuit

	ctx    context.Context
	cancel context.CancelCauseFunc
	ledger *Ledger
	replay *LedgerJob // recorded progress to restore; nil for fresh jobs
	exch   *ring

	mu         sync.Mutex
	state      string
	stateSig   broadcast // fires on every state change
	rr         *core.RemoteRun
	pass       *passState // current pass, nil between passes
	passSeq    int
	leaseStats sched.LeaseStats // accumulated over finished passes
	replayed   int              // units restored from the ledger
	results    []WireResult
	testsText  string
	stats      core.Stats
	err        string // why a failed job failed

	evMu   sync.Mutex
	events []WireResult
	evDone bool
	evSig  broadcast // fires on every append and when the feed closes
}

// passState is the leasable surface of the pass currently being dispatched.
type passState struct {
	seq   int
	q     *sched.LeaseQueue
	units []sched.Unit
}

// ring is the bounded cross-worker pattern exchange of one job.  Patterns
// are addressed by a monotonically growing cursor; entries that age out of
// the window are counted as dropped (backpressure, not an error — a worker
// that misses foreign patterns only forgoes drop opportunities).
type ring struct {
	mu      sync.Mutex
	cap     int
	base    int
	buf     []WirePattern
	dropped int
}

func newRing(capacity int) *ring { return &ring{cap: capacity} }

func (r *ring) publish(ps []WirePattern) {
	if len(ps) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = append(r.buf, ps...)
	if over := len(r.buf) - r.cap; over > 0 {
		r.buf = append([]WirePattern(nil), r.buf[over:]...)
		r.base += over
		r.dropped += over
	}
}

func (r *ring) fetch(from int) (out []WirePattern, next, dropped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < r.base {
		dropped = r.base - from
		from = r.base
	}
	if from > r.base+len(r.buf) {
		from = r.base + len(r.buf)
	}
	out = append([]WirePattern(nil), r.buf[from-r.base:]...)
	return out, r.base + len(r.buf), dropped
}

// NewCoordinator builds a coordinator and, when the config names a ledger
// directory, resumes every incomplete job found there.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancelCause(context.Background())
	co := &Coordinator{
		cfg:    cfg,
		cache:  NewCache(cfg.CacheSize),
		mux:    http.NewServeMux(),
		ctx:    ctx,
		stop:   stop,
		sem:    make(chan struct{}, cfg.MaxActive),
		drain:  make(chan struct{}),
		jobs:   make(map[string]*job),
		nextID: 1,
	}
	co.routes()
	if cfg.LedgerDir != "" {
		if err := co.resume(); err != nil {
			stop(errShutdown)
			return nil, err
		}
	}
	return co, nil
}

// Close stops the coordinator: it begins the shutdown (see BeginShutdown),
// then cancels running jobs with the shutdown cause, which records no
// terminal ledger state — a coordinator restarted on the same ledger
// directory resumes them where they left off.
func (co *Coordinator) Close() {
	co.BeginShutdown()
	co.stop(errShutdown)
	co.wg.Wait()
}

// Cache exposes the compiled-circuit cache (hit/miss counters for tests and
// the service cache benchmark).
func (co *Coordinator) Cache() *Cache { return co.cache }

// now reads the lease clock (time.Now unless injected).
func (co *Coordinator) now() time.Time { return co.cfg.Clock() }

func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if co.draining() {
		writeShutdown(w)
		return
	}
	co.mux.ServeHTTP(w, r)
}

func (co *Coordinator) routes() {
	co.mux.HandleFunc("POST "+API+"/jobs", co.handleSubmit)
	co.mux.HandleFunc("GET "+API+"/jobs/{id}", co.handleStatus)
	co.mux.HandleFunc("DELETE "+API+"/jobs/{id}", co.handleCancel)
	co.mux.HandleFunc("GET "+API+"/jobs/{id}/events", co.handleEvents)
	co.mux.HandleFunc("GET "+API+"/jobs/{id}/results", co.handleResults)
	co.mux.HandleFunc("POST "+API+"/jobs/{id}/results", co.handlePostResults)
	co.mux.HandleFunc("GET "+API+"/jobs/{id}/patterns", co.handlePatterns)
	co.mux.HandleFunc("GET "+API+"/jobs/{id}/spec", co.handleSpec)
	co.mux.HandleFunc("GET "+API+"/circuits/{hash}", co.handleCircuit)
	co.mux.HandleFunc("POST "+API+"/lease", co.handleLease)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Code: code, Error: msg})
}

// Request body limits, one per route that reads a body.  Each leaves wide
// headroom over what a job sends: a 3,000-fault c880 job submits 330 KB and
// posts about 42 KB of unit results at a time, and a lease request is a
// worker id and two numbers.  The largest legitimate bodies are a submit
// carrying the s38584 stand-in's bench text and a few hundred thousand
// faults, and a results post of four 512-fault units of that circuit, whose
// tested outcomes carry about 6 KB of patterns each (about 20 MB).
const (
	maxSubmitBody  = 64 << 20
	maxLeaseBody   = 64 << 10
	maxResultsBody = 64 << 20
)

// writeBodyErr answers a request whose body could not be read or decoded:
// 413 too-large when the body exceeds the route's limit, 400 bad-request
// otherwise.
func writeBodyErr(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, "too-large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
}

// ---- job lifecycle ----

func (co *Coordinator) newJobID() string {
	co.mu.Lock()
	defer co.mu.Unlock()
	id := fmt.Sprintf("j%d", co.nextID)
	co.nextID++
	return id
}

// addJob registers the job and starts its run goroutine.
func (co *Coordinator) addJob(j *job) {
	jctx, cancel := context.WithCancelCause(co.ctx)
	j.ctx, j.cancel = jctx, cancel
	j.state = stateQueued
	j.exch = newRing(co.cfg.ExchangeCap)
	co.mu.Lock()
	co.jobs[j.id] = j
	co.order = append(co.order, j.id)
	co.mu.Unlock()
	co.wg.Add(1)
	go co.runJob(j)
}

func (co *Coordinator) job(id string) *job {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.jobs[id]
}

func (co *Coordinator) runJob(j *job) {
	defer co.wg.Done()
	defer j.ledger.Close()
	select {
	case co.sem <- struct{}{}:
		defer func() { <-co.sem }()
	case <-j.ctx.Done():
		j.finalize(nil, "", core.Stats{}, nil)
		return
	}
	j.setState(stateRunning)

	master := core.New(j.c, j.coreOpts)
	master.OnSettle = func(r core.FaultResult) {
		// Merge indices do not exist yet when a fault settles: events carry -1.
		j.appendEvent(EncodeResult(j.c, r, -1))
	}
	rr := core.NewRemoteRun(master, j.faults)
	j.mu.Lock()
	j.rr = rr
	j.mu.Unlock()

	spec := passSpec(master.Options())
	results := rr.Run(j.ctx, func(units []sched.Unit) {
		co.runPass(j, units, spec)
	})

	var buf bytes.Buffer
	_ = master.TestSet().Write(&buf)
	wire := make([]WireResult, len(results))
	for i, r := range results {
		wire[i] = EncodeResult(j.c, r, r.PatternIndex)
	}
	j.finalize(wire, buf.String(), master.Stats(), master.Err())
}

// finalize lands the job in its terminal state: canceled when its context
// ended, failed when the run reported an error (the master generator's
// finishing passes could not simulate the merged set — a bug, which must not
// pass for a done job), done otherwise.
func (j *job) finalize(results []WireResult, tests string, stats core.Stats, runErr error) {
	state := stateDone
	persist := true
	var reason string
	switch {
	case j.ctx.Err() != nil:
		state = stateCanceled
		if errors.Is(context.Cause(j.ctx), errShutdown) {
			// Shutdown is not a verdict on the job: leave the ledger without
			// a terminal state so a restart resumes it.
			persist = false
		}
	case runErr != nil:
		state, reason = stateFailed, runErr.Error()
	}
	j.mu.Lock()
	j.results, j.testsText, j.stats, j.state, j.err = results, tests, stats, state, reason
	j.mu.Unlock()
	j.stateSig.fire()
	if persist {
		j.ledger.RecordState(state)
	}
	j.closeEvents()
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
	j.stateSig.fire()
}

func terminal(state string) bool {
	return state == stateDone || state == stateCanceled || state == stateFailed
}

// runPass dispatches one pass's units through the lease queue and blocks
// until every unit has completed (or the job is canceled).  It is the
// dispatch callback of core.RemoteRun.Run, so returning is the pass barrier.
// spec is recorded in the ledger with the pass's unit cut.
func (co *Coordinator) runPass(j *job, units []sched.Unit, spec WireSpec) {
	q := sched.NewLeaseQueue(units)
	j.mu.Lock()
	j.passSeq++
	seq := j.passSeq
	j.pass = &passState{seq: seq, q: q, units: units}
	j.replayPassLocked(seq, spec, units, q)
	j.mu.Unlock()
	co.work.fire()

	// Requeue sweep: units whose lease expired (worker died or stalled)
	// become leasable again, and parked leases wake to take them.
	tctx, stopTick := context.WithCancel(j.ctx)
	var tick sync.WaitGroup
	tick.Add(1)
	go func() {
		defer tick.Done()
		t := time.NewTicker(co.cfg.ExpireInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if q.Expire(co.now()) > 0 {
					co.work.fire()
				}
			case <-tctx.Done():
				return
			}
		}
	}()
	_ = q.Wait(j.ctx)
	stopTick()
	tick.Wait()

	// Pass barrier: the handler that completed the final unit holds j.mu
	// across Complete+Apply, so acquiring j.mu here guarantees every applied
	// outcome happened-before dispatch returns (see core.RemoteRun's
	// synchronization contract).
	j.mu.Lock()
	st := q.Stats()
	j.leaseStats.Leases += st.Leases
	j.leaseStats.Completed += st.Completed
	j.leaseStats.Requeues += st.Requeues
	j.leaseStats.Duplicates += st.Duplicates
	j.pass = nil
	j.mu.Unlock()
}

// replayPassLocked restores recorded completions of this pass from the
// ledger: matching units are completed and applied without dispatching any
// work, so no patterns are re-generated for units merged before the restart.
// Caller holds j.mu.
func (j *job) replayPassLocked(seq int, spec WireSpec, units []sched.Unit, q *sched.LeaseQueue) {
	cut := make([][]int, len(units))
	for i, u := range units {
		cut[i] = u.Faults
	}
	if j.replay != nil {
		if lp, ok := j.replay.Passes[seq]; ok && passMatches(lp, spec, cut) {
			for _, lu := range j.replay.Units[seq] {
				if lu.Unit < 0 || lu.Unit >= len(units) {
					continue
				}
				outs, err := DecodeOutcomes(lu.Outcomes)
				if err != nil || len(outs) != len(units[lu.Unit].Faults) {
					continue
				}
				if !q.Complete(lu.Unit) {
					continue
				}
				j.rr.Apply(units[lu.Unit].Faults, outs)
				j.replayed++
				// Republish replayed patterns so live workers joining the
				// resumed run still see them for claim sweeps.
				var pats []WirePattern
				for _, o := range outs {
					if o.Status == core.Tested {
						pats = append(pats, WirePattern{Worker: lu.Worker, Test: o.Test.String()})
					}
				}
				j.exch.publish(pats)
			}
			// The pass record is already on disk; nothing to append.
			return
		}
		// The recorded cut disagrees with the computed one (options or code
		// changed under the ledger): discard the remaining replay and fall
		// through to a fresh record.  Determinism makes this unreachable for
		// an unchanged binary.
		j.replay = nil
	}
	j.ledger.RecordPass(seq, spec, cut)
}

func passMatches(lp LedgerPass, spec WireSpec, cut [][]int) bool {
	if lp.Spec != spec || len(lp.Units) != len(cut) {
		return false
	}
	for i, u := range lp.Units {
		if len(u) != len(cut[i]) {
			return false
		}
		for k, f := range u {
			if f != cut[i][k] {
				return false
			}
		}
	}
	return true
}

// ---- event stream ----

func (j *job) appendEvent(ev WireResult) {
	j.evMu.Lock()
	j.events = append(j.events, ev)
	j.evMu.Unlock()
	j.evSig.fire()
}

func (j *job) closeEvents() {
	j.evMu.Lock()
	j.evDone = true
	j.evMu.Unlock()
	j.evSig.fire()
}

func (j *job) settled() int {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	return len(j.events)
}

// ---- resume ----

func (co *Coordinator) resume() error {
	// Compact every journal before replaying: terminal jobs shrink to
	// stubs, incomplete ones lose duplicate completions and torn tails.
	// Best-effort — a journal that cannot be compacted is still replayable.
	if paths, err := filepath.Glob(filepath.Join(co.cfg.LedgerDir, "*.jsonl")); err == nil {
		for _, p := range paths {
			_, _, _ = CompactLedgerFile(p)
		}
	}
	ledgers, err := LoadLedgers(co.cfg.LedgerDir)
	if err != nil {
		return err
	}
	for _, lj := range ledgers {
		co.bumpNextID(lj.ID)
		if lj.State != "" {
			continue // terminal: nothing to resume
		}
		if err := co.resumeJob(lj); err != nil {
			// Poison the ledger so the next restart does not retry forever.
			if led, lerr := OpenLedger(co.cfg.LedgerDir, lj.ID); lerr == nil {
				led.RecordState(stateFailed)
				led.Close()
			}
		}
	}
	return nil
}

func (co *Coordinator) bumpNextID(id string) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return
	}
	co.mu.Lock()
	if n >= co.nextID {
		co.nextID = n + 1
	}
	co.mu.Unlock()
}

func (co *Coordinator) resumeJob(lj *LedgerJob) error {
	coreOpts, err := lj.Options.ToCore()
	if err != nil {
		return err
	}
	c, hash, err := co.cache.Compile(lj.Name, lj.Bench)
	if err != nil {
		return err
	}
	if lj.Hash != "" && hash != lj.Hash {
		return fmt.Errorf("service: ledger %s: bench text does not match recorded hash", lj.ID)
	}
	faults, err := DecodeFaults(c, lj.Faults)
	if err != nil {
		return err
	}
	led, err := OpenLedger(co.cfg.LedgerDir, lj.ID)
	if err != nil {
		return err
	}
	led.SetChaos(co.cfg.Chaos)
	co.addJob(&job{
		id:         lj.ID,
		name:       lj.Name,
		hash:       hash,
		wireOpts:   lj.Options,
		coreOpts:   coreOpts,
		wireFaults: lj.Faults,
		faults:     faults,
		c:          c,
		ledger:     led,
		replay:     lj,
	})
	return nil
}

// ---- handlers ----

func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	// Unknown fields are rejected, not ignored: a client sending an option
	// this coordinator does not know would otherwise get a different run
	// than it asked for.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeBodyErr(w, err)
		return
	}
	coreOpts, err := req.Options.ToCore()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-options", err.Error())
		return
	}
	var (
		c    *circuit.Circuit
		hash string
		hit  bool
	)
	switch {
	case req.CircuitBench != "":
		h := HashBench(req.CircuitBench)
		if req.CircuitHash != "" && req.CircuitHash != h {
			writeErr(w, http.StatusBadRequest, "hash-mismatch", "circuit_bench does not hash to circuit_hash")
			return
		}
		_, hit = co.cache.Bench(h)
		c, hash, err = co.cache.Compile(req.Name, req.CircuitBench)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad-circuit", err.Error())
			return
		}
	case req.CircuitHash != "":
		c, hit = co.cache.Get(req.CircuitHash)
		hash = req.CircuitHash
		if !hit {
			writeErr(w, http.StatusConflict, "unknown-circuit",
				"circuit "+req.CircuitHash+" not cached; resubmit with circuit_bench")
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, "missing-circuit", "need circuit_bench or circuit_hash")
		return
	}
	faults, err := DecodeFaults(c, req.Faults)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-faults", err.Error())
		return
	}

	id := co.newJobID()
	var led *Ledger
	if co.cfg.LedgerDir != "" {
		led, err = OpenLedger(co.cfg.LedgerDir, id)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "ledger", err.Error())
			return
		}
		led.SetChaos(co.cfg.Chaos)
		bench, _ := co.cache.Bench(hash)
		led.RecordJob(id, req.Name, hash, bench, req.Options, req.Faults)
	}
	co.addJob(&job{
		id:         id,
		name:       req.Name,
		hash:       hash,
		cacheHit:   hit,
		wireOpts:   req.Options,
		coreOpts:   coreOpts,
		wireFaults: req.Faults,
		faults:     faults,
		c:          c,
		ledger:     led,
	})
	writeJSON(w, http.StatusOK, SubmitResponse{JobID: id, CircuitHash: hash, CacheHit: hit, Faults: len(faults)})
}

func (co *Coordinator) statusOf(j *job) JobStatus {
	j.mu.Lock()
	st := JobStatus{
		JobID:    j.id,
		Name:     j.name,
		State:    j.state,
		Error:    j.err,
		Faults:   len(j.faults),
		CacheHit: j.cacheHit,
		Replayed: j.replayed,
	}
	ls := j.leaseStats
	if j.pass != nil {
		cur := j.pass.q.Stats()
		ls.Leases += cur.Leases
		ls.Requeues += cur.Requeues
		ls.Duplicates += cur.Duplicates
	}
	j.mu.Unlock()
	st.Leases, st.Requeues, st.Duplicates = ls.Leases, ls.Requeues, ls.Duplicates
	st.Settled = j.settled()
	return st
}

// handleStatus answers a job's status.  A request naming the state its
// caller last saw (?state=running&wait_ms=…) parks until the job leaves
// that state; it returns at once if the state already differs or is
// terminal.
func (co *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := co.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", "no such job")
		return
	}
	seen := r.URL.Query().Get("state")
	var st JobStatus
	if co.park(w, r, &j.stateSig, waitQuery(r), func() bool {
		st = co.statusOf(j)
		return st.State != seen || terminal(st.State)
	}) {
		co.reply(w, st)
	}
}

func (co *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := co.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", "no such job")
		return
	}
	j.cancel(errClientCancel)
	co.reply(w, co.statusOf(j))
}

func (co *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	j := co.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", "no such job")
		return
	}
	writeJSON(w, http.StatusOK, JobSpec{
		JobID:       j.id,
		CircuitHash: j.hash,
		Options:     j.wireOpts,
		Faults:      j.wireFaults,
	})
}

func (co *Coordinator) handleCircuit(w http.ResponseWriter, r *http.Request) {
	bench, ok := co.cache.Bench(r.PathValue("hash"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown-circuit", "circuit not cached")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(bench))
}

func (co *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	j := co.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", "no such job")
		return
	}
	j.mu.Lock()
	if j.state != stateDone && j.state != stateCanceled {
		msg := "job is " + j.state
		if j.err != "" {
			msg += ": " + j.err
		}
		j.mu.Unlock()
		writeErr(w, http.StatusConflict, "not-done", msg)
		return
	}
	resp := ResultsResponse{JobID: j.id, State: j.state, Results: j.results, Tests: j.testsText, Stats: j.stats}
	j.mu.Unlock()
	co.reply(w, resp)
}

func (co *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := co.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", "no such job")
		return
	}
	from, _ := strconv.Atoi(r.URL.Query().Get("from"))
	from = max(from, 0)
	var resp EventsResponse
	if co.park(w, r, &j.evSig, waitQuery(r), func() bool {
		j.evMu.Lock()
		defer j.evMu.Unlock()
		from = min(from, len(j.events))
		resp = EventsResponse{
			Events: append([]WireResult(nil), j.events[from:]...),
			Next:   len(j.events),
			Done:   j.evDone,
		}
		return len(resp.Events) > 0 || resp.Done
	}) {
		co.reply(w, resp)
	}
}

func (co *Coordinator) handlePatterns(w http.ResponseWriter, r *http.Request) {
	j := co.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", "no such job")
		return
	}
	from, _ := strconv.Atoi(r.URL.Query().Get("from"))
	pats, next, dropped := j.exch.fetch(from)
	writeJSON(w, http.StatusOK, PatternsResponse{Patterns: pats, Next: next, Dropped: dropped})
}

// handleLease hands out units of the oldest running job that has pending
// work.  A request with a wait window parks until a unit is leasable; 204
// means nothing was leasable within it.
func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	// Read the body to its end: net/http notices that a parked client hung
	// up only once the request body is consumed.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxLeaseBody))
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	var req LeaseRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "bad-request", "worker id required")
		return
	}
	max := req.MaxUnits
	if max <= 0 {
		max = co.cfg.UnitsPerLease
	}
	var (
		resp    LeaseResponse
		granted bool
	)
	if !co.park(w, r, &co.work, waitMS(req.WaitMS), func() bool {
		resp, granted = co.lease(req.Worker, max)
		return granted
	}) {
		return
	}
	if !granted {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// lease takes up to max units for worker from the oldest running job with
// pending work.
func (co *Coordinator) lease(worker string, max int) (LeaseResponse, bool) {
	co.mu.Lock()
	jobs := make([]*job, 0, len(co.order))
	for _, id := range co.order {
		jobs = append(jobs, co.jobs[id])
	}
	co.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.state != stateRunning || j.pass == nil {
			j.mu.Unlock()
			continue
		}
		leased := j.pass.q.Lease(worker, max, co.cfg.LeaseTTL, co.now())
		if len(leased) == 0 {
			j.mu.Unlock()
			continue
		}
		resp := LeaseResponse{
			JobID: j.id,
			Pass:  j.pass.seq,
			TTLMS: co.cfg.LeaseTTL.Milliseconds(),
			SimOn: j.coreOpts.FaultSimInterval > 0,
		}
		for _, lu := range leased {
			resp.Units = append(resp.Units, WireUnit{ID: lu.ID, Faults: lu.Unit.Faults})
		}
		j.mu.Unlock()
		return resp, true
	}
	return LeaseResponse{}, false
}

// checkWidths rejects a Tested outcome whose pattern does not have one value
// per primary input of the job's circuit: the merge would absorb it into the
// test set, where every later simulation of the set fails.
func checkWidths(outs []core.RemoteOutcome, inputs int) error {
	for i, o := range outs {
		if o.Status != core.Tested {
			continue
		}
		if n := o.Test.Len(); n != inputs {
			return fmt.Errorf("outcome %d: test pattern has %d values for %d inputs", i, n, inputs)
		}
		if n := o.Raw.Len(); n != 0 && n != inputs {
			return fmt.Errorf("outcome %d: raw pattern has %d values for %d inputs", i, n, inputs)
		}
	}
	return nil
}

// handlePostResults folds a worker's batch into the run.  Completion and
// Apply happen under j.mu — that, plus runPass re-acquiring j.mu after the
// queue drains, is the happens-before barrier core.RemoteRun requires.
func (co *Coordinator) handlePostResults(w http.ResponseWriter, r *http.Request) {
	j := co.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", "no such job")
		return
	}
	var req PostResults
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResultsBody)).Decode(&req); err != nil {
		writeBodyErr(w, err)
		return
	}

	j.mu.Lock()
	if j.ctx.Err() != nil || j.state == stateCanceled {
		j.mu.Unlock()
		writeJSON(w, http.StatusOK, PostResultsResponse{Stale: true, Canceled: true})
		return
	}
	ps := j.pass
	if j.state != stateRunning || ps == nil || ps.seq != req.Pass {
		j.mu.Unlock()
		// At-least-once delivery meeting a finished pass: discard, no error.
		writeJSON(w, http.StatusOK, PostResultsResponse{Stale: true})
		return
	}
	// Validate everything before completing anything, so a malformed batch
	// is rejected whole and the worker's retry is not a duplicate.
	inputs := len(j.c.Inputs())
	decoded := make([][]core.RemoteOutcome, len(req.Units))
	for i, ur := range req.Units {
		if ur.ID < 0 || ur.ID >= len(ps.units) {
			j.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "bad-unit", fmt.Sprintf("unit %d out of range", ur.ID))
			return
		}
		if len(ur.Outcomes) != len(ps.units[ur.ID].Faults) {
			j.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "bad-unit", fmt.Sprintf("unit %d: %d outcomes for %d faults", ur.ID, len(ur.Outcomes), len(ps.units[ur.ID].Faults)))
			return
		}
		outs, err := DecodeOutcomes(ur.Outcomes)
		if err == nil {
			err = checkWidths(outs, inputs)
		}
		if err != nil {
			j.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "bad-unit", fmt.Sprintf("unit %d: %v", ur.ID, err))
			return
		}
		decoded[i] = outs
	}
	for i, wp := range req.Patterns {
		p, err := pattern.ParsePair(wp.Test)
		if err == nil && p.Len() != inputs {
			err = fmt.Errorf("%d values for %d inputs", p.Len(), inputs)
		}
		if err != nil {
			j.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("exchange pattern %d: %v", i, err))
			return
		}
	}
	j.exch.publish(req.Patterns)
	j.rr.AddEffort(req.Effort)
	for i, ur := range req.Units {
		if !ps.q.Complete(ur.ID) {
			continue // duplicate completion: first write won, skip
		}
		ufaults := ps.units[ur.ID].Faults
		j.rr.Apply(ufaults, decoded[i])
		j.ledger.RecordUnit(ps.seq, ur.ID, req.Worker, ufaults, ur.Outcomes)
	}
	// Snapshot-and-truncate a journal that outgrew the watermark; holding
	// j.mu here keeps the snapshot consistent with the applied state.
	if wm := co.cfg.CompactWatermark; wm > 0 && j.ledger.Size() >= wm {
		_, _, _ = j.ledger.Compact()
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, PostResultsResponse{})
}
