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
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/paths"
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
	// is requeued to someone else; expired leases are swept every LeaseTTL/4,
	// at least 50 ms.  Default 30s.
	LeaseTTL time.Duration
	// MaxActive bounds how many jobs generate concurrently; the rest queue.
	// Default 4.
	MaxActive int
	// LedgerDir, when set, persists a JSONL unit ledger per job and resumes
	// unfinished jobs on startup.
	LedgerDir string
	// Chaos, when set, injects the configured coordinator-side faults:
	// torn ledger appends and the lease-clock expiry storm.
	Chaos *chaos.Injector
}

func (cfg Config) withDefaults() Config {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 4
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
	clock func() time.Time // the lease clock: leases and expiry sweeps

	ctx  context.Context
	stop context.CancelCauseFunc
	sem  chan struct{} // bounds concurrently generating jobs
	wg   sync.WaitGroup

	// work fires whenever units may have become leasable: a job's pass
	// starts or the expiry sweep requeues units.  Parked leases wait on it.
	work broadcast
	// drain is closed when shutdown begins (BeginShutdown).
	drain     chan struct{}
	drainOnce sync.Once

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // unfinished jobs in submission order; leases scan oldest-first
	nextID int
}

// job is one submitted ATPG run.
type job struct {
	id       string
	name     string
	hash     string
	cacheHit bool

	wireOpts   JobOptions // coreOpts rendered back (WireOptions)
	coreOpts   core.Options
	wireFaults []WireFault // the faults leases carry, nil once the job ends
	faults     []paths.Fault
	c          *circuit.Circuit

	ctx    context.Context
	cancel context.CancelCauseFunc
	ledger *Ledger
	replay *LedgerJob // recorded progress to restore; nil for fresh jobs
	simOn  bool       // the job runs the interleaved simulation

	mu        sync.Mutex
	state     string
	stateSig  broadcast       // fires on every state change
	rr        *core.RemoteRun // the run while it runs, nil once the job ends
	pass      *passState      // the pass while it is dispatched, nil before and after
	leases    sched.Stats     // the pass's lease counters once it is over
	exch      exchange
	replayed  int // units restored from the ledger
	results   []core.FaultResult
	testsText string
	stats     core.Stats
	err       string // why a failed job failed

	// The settle-event feed: each settled fault's index and its result at
	// settle time, in settle order.  A page renders them when it is served,
	// so a feed nobody follows costs no more than these two slices.
	evMu      sync.Mutex
	evIndex   []int
	evResults []core.FaultResult
	evDone    bool
	evSig     broadcast // fires on every append and when the feed closes
}

// passState is the leasable surface of the job's pass while it is
// dispatched: the lease queue and the unit cut it hands out.
type passState struct {
	q     *sched.LeaseQueue
	units []sched.Unit
}

// exchangeCap bounds the patterns a job's exchange holds.
const exchangeCap = 4096

// exchange is the cross-worker pattern exchange of a job that simulates:
// the tests of its applied tested outcomes, each with the worker that
// reported it, at positions that only grow.  Past exchangeCap patterns a
// publish drops the oldest; a worker that misses them only forgoes drop
// opportunities.  The job's mutex guards it.
type exchange struct {
	base    int // position of buf[0]
	buf     []exchanged
	cursors map[string]int // each worker's next position to read
}

type exchanged struct{ worker, test string }

func (x *exchange) publish(worker, test string) {
	x.buf = append(x.buf, exchanged{worker, test})
	if over := len(x.buf) - exchangeCap; over > 0 {
		x.buf = x.buf[over:]
		x.base += over
	}
}

// since returns the tests published since the worker's previous call,
// except its own, and moves the worker's cursor past them.  A cursor that
// fell behind the oldest pattern held reads from there.
func (x *exchange) since(worker string) []string {
	if x.cursors == nil {
		x.cursors = make(map[string]int)
	}
	var out []string
	for _, e := range x.buf[max(x.cursors[worker], x.base)-x.base:] {
		if e.worker != worker {
			out = append(out, e.test)
		}
	}
	x.cursors[worker] = x.base + len(x.buf)
	return out
}

// NewCoordinator builds a coordinator and, when the config names a ledger
// directory, resumes every incomplete job found there.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancelCause(context.Background())
	co := &Coordinator{
		cfg:    cfg,
		cache:  NewCache(),
		mux:    http.NewServeMux(),
		clock:  cfg.Chaos.Clock(), // time.Now for a nil injector
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
// the bench's service-loopback workload).
func (co *Coordinator) Cache() *Cache { return co.cache }

// now reads the lease clock (time.Now unless the chaos injector skews it).
func (co *Coordinator) now() time.Time { return co.clock() }

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
	co.mux.HandleFunc("GET "+API+"/jobs/{id}/spec", co.handleSpec)
	co.mux.HandleFunc("GET "+API+"/circuits/{hash}", co.handleCircuit)
	co.mux.HandleFunc("POST "+API+"/lease", co.handleLease)
}

// maxPresize bounds the buffer the service sets aside for a body before the
// body's bytes arrive, and the reply buffers it keeps for reuse.  A c880 job
// of 3,000 faults submits 191 KB, leases about 16 KB of faults at a time,
// posts about 15 KB of unit results at a time and is sent 316 KB of
// results, so each of its bodies is still read into one buffer of its size.
// A body that declares more grows its buffer as its bytes arrive: a length
// that is declared and never sent holds no more than this.
const maxPresize = 1 << 20

// readSized reads a body that declares n bytes: one of at most maxPresize
// bytes into one buffer of its size, a longer one into a buffer that grows
// as its bytes arrive.  A body that ends short fails with
// io.ErrUnexpectedEOF.
func readSized(r io.Reader, n int64) ([]byte, error) {
	// The MinRead spare lets ReadFrom see the end without growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, min(n, maxPresize)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(r, n)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) < n {
		return nil, io.ErrUnexpectedEOF
	}
	return buf.Bytes(), nil
}

// replyBufs recycles the buffers writeJSON encodes replies into.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON answers with v encoded as one JSON line.  The body is encoded
// into a pooled buffer first, so it goes out in one write with its
// Content-Length, and the client reads it into one buffer of that size.  A
// buffer grown past maxPresize, by a large job's results, is not kept.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := replyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(v)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPresize {
		replyBufs.Put(buf)
	}
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Code: code, Error: msg})
}

// Request body limits, one per route that reads a body.  Each leaves wide
// headroom over what a job sends: a 3,000-fault c880 job submits 191 KB and
// posts about 15 KB of unit results at a time, and a lease request is a
// worker id and two numbers.  The largest legitimate bodies are a submit
// carrying the s38584 stand-in's bench text and a few hundred thousand
// faults, and a results post of four 512-fault units of that circuit, whose
// tested outcomes carry about 6 KB of patterns each (about 20 MB).
const (
	maxSubmitBody  = 64 << 20
	maxLeaseBody   = 64 << 10
	maxResultsBody = 64 << 20
)

// bodyReadTimeout bounds the time a request body may take to arrive: a
// client that declares a body and withholds it has its connection closed
// then, instead of holding it and a handler for as long as it likes.  Two
// minutes lets a 64 MiB body arrive at 0.6 MB/s.  A variable so that tests
// can shrink it.
var bodyReadTimeout = 2 * time.Minute

// bodyDeadline sets the read deadline for the request body on w's
// connection and returns the function that clears it, which the caller
// calls once the body is read to its end: a deadline left standing would
// cancel the request's context when it passed, so a long-poll parked after
// its body was read would end early.  A body that is refused or fails to
// arrive keeps the deadline, which then also bounds net/http's discarding
// of its unread rest: the connection is closed after the error reply.
func bodyDeadline(w http.ResponseWriter) (clear func()) {
	rc := http.NewResponseController(w)
	if rc.SetReadDeadline(time.Now().Add(bodyReadTimeout)) != nil {
		return func() {}
	}
	return func() { _ = rc.SetReadDeadline(time.Time{}) }
}

// decodeBody reads a request body of at most limit bytes, within
// bodyReadTimeout (see bodyDeadline), and decodes it as JSON into v.  A body
// of declared length is read by readSized, and one declared over the limit
// is refused unread; a body of unknown length is read to its end through
// the limit.  A body that is read is read to its end, which is when
// net/http starts watching for the client to hang up.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	clear := bodyDeadline(w)
	var body []byte
	var err error
	switch n := r.ContentLength; {
	case n > limit:
		return &http.MaxBytesError{Limit: limit}
	case n >= 0:
		body, err = readSized(r.Body, n)
	default:
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err != nil {
		return err
	}
	clear()
	return json.Unmarshal(body, v)
}

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
	j.simOn = j.coreOpts.FaultSimInterval > 0
	// Every fault settles exactly once, so the event log is made at its
	// final size.
	j.evIndex = make([]int, 0, len(j.faults))
	j.evResults = make([]core.FaultResult, 0, len(j.faults))
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
	defer func() {
		co.mu.Lock()
		co.order = slices.DeleteFunc(co.order, func(id string) bool { return id == j.id })
		co.mu.Unlock()
	}()
	select {
	case co.sem <- struct{}{}:
		defer func() { <-co.sem }()
		j.setState(stateRunning)
	case <-j.ctx.Done():
		// Canceled while queued: the run dispatches nothing and returns
		// every fault Aborted with the cause, counted as in a local run
		// canceled before it started.
	}

	master := core.New(j.c, j.coreOpts)
	// Merge indices do not exist yet when a fault settles: r.PatternIndex
	// is -1.
	master.OnSettle = j.appendEvent
	rr := core.NewRemoteRun(master, j.faults)
	j.mu.Lock()
	j.rr = rr
	j.mu.Unlock()

	results := rr.Run(j.ctx, func(units []sched.Unit) sched.Stats {
		return co.runPass(j, units)
	})

	var buf bytes.Buffer
	_ = master.TestSet().Write(&buf)
	j.finalize(results, buf.String(), master.Stats(), master.Err())
}

// finalize lands the job in its terminal state: canceled when its context
// ended, failed when the run reported an error (the master generator's
// finishing passes could not simulate the merged set — a bug, which must not
// pass for a done job), done otherwise.  The journal becomes the job's stub
// before the state is published, and the run, the faults leases carry and
// the pattern exchange are let go: a finished job keeps only what its
// status, results and event pages serve.
func (j *job) finalize(results []core.FaultResult, tests string, stats core.Stats, runErr error) {
	state := stateDone
	var reason string
	switch {
	case j.ctx.Err() != nil:
		state = stateCanceled
	case runErr != nil:
		state, reason = stateFailed, runErr.Error()
	}
	// Shutdown is not a verdict on the job: its journal stays as it is, so
	// a restart resumes it.
	if !errors.Is(context.Cause(j.ctx), errShutdown) {
		j.ledger.Finish(j.id, j.name, state, reason)
	}
	j.mu.Lock()
	j.results, j.testsText, j.stats, j.state, j.err = results, tests, stats, state, reason
	j.rr, j.wireFaults, j.replay, j.exch = nil, nil, nil, exchange{}
	j.mu.Unlock()
	j.stateSig.fire()
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

// runPass dispatches the job's units through the lease queue, blocks until
// every unit has completed (or the job is canceled) and returns the queue's
// counters.  It is the dispatch callback of core.RemoteRun.Run, so returning
// is the pass barrier.
func (co *Coordinator) runPass(j *job, units []sched.Unit) sched.Stats {
	q := sched.NewLeaseQueue(units)
	j.mu.Lock()
	j.pass = &passState{q: q, units: units}
	j.replayLocked()
	j.mu.Unlock()
	co.work.fire()

	// Requeue sweep: units whose lease expired (worker died or stalled)
	// become leasable again, and parked leases wake to take them.
	tctx, stopTick := context.WithCancel(j.ctx)
	var tick sync.WaitGroup
	tick.Add(1)
	go func() {
		defer tick.Done()
		t := time.NewTicker(max(co.cfg.LeaseTTL/4, 50*time.Millisecond))
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
	defer j.mu.Unlock()
	j.leases = q.Stats()
	j.pass = nil
	return j.leases
}

// replayLocked restores a resumed job's recorded unit completions against
// the cut the job computes now: each recorded unit that passes the checks a
// live post gets goes through the same apply path, without dispatching any
// work, so no patterns are re-generated for units merged before the
// restart.  A unit that fails them is dispatched again, and a unit recorded
// twice applies once.  Caller holds j.mu.
func (j *job) replayLocked() {
	if j.replay == nil {
		return
	}
	ps := j.pass
	for _, lu := range j.replay.Units {
		outs, err := j.checkUnit(ps, lu.Unit, &lu.Outcomes)
		if err == nil && j.applyUnit(ps, lu.Unit, lu.Worker, outs, lu.Outcomes.Tests) {
			j.replayed++
		}
	}
	j.replay = nil
}

// checkUnit decodes a reported unit's outcome columns and checks them
// against the pass: the unit ID, one entry per fault of the unit in every
// column (see OutcomeColumns), and one value per primary input in the
// patterns of every tested outcome.  Live posts and ledger replay both check
// every unit here before applying it.
func (j *job) checkUnit(ps *passState, id int, oc *OutcomeColumns) ([]core.RemoteOutcome, error) {
	if id < 0 || id >= len(ps.units) {
		return nil, fmt.Errorf("unit %d out of range", id)
	}
	outs, err := oc.outcomes(len(ps.units[id].Faults))
	if err == nil {
		err = checkWidths(outs, len(j.c.Inputs()))
	}
	if err != nil {
		return nil, fmt.Errorf("unit %d: %w", id, err)
	}
	return outs, nil
}

// applyUnit is the one apply path of live posts and ledger replay: it
// completes a checked unit and, on its first completion only, folds the
// outcomes into the run and, when the job simulates, publishes the tests of
// its tested outcomes (tests, the unit's tests column) to the exchange under
// the reporting worker.  It reports whether the completion was the first.
// Caller holds j.mu.
func (j *job) applyUnit(ps *passState, id int, worker string, outs []core.RemoteOutcome, tests []string) bool {
	if !ps.q.Complete(id) {
		return false
	}
	j.rr.Apply(ps.units[id].Faults, outs)
	if j.simOn {
		for _, t := range tests {
			j.exch.publish(worker, t)
		}
	}
	return true
}

// ---- event stream ----

// appendEvent records the settle of the job's i-th fault; it is the master
// generator's OnSettle.
func (j *job) appendEvent(i int, r core.FaultResult) {
	j.evMu.Lock()
	j.evIndex = append(j.evIndex, i)
	j.evResults = append(j.evResults, r)
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
	return len(j.evIndex)
}

// ---- resume ----

// resume reads every journal in the ledger directory, in file name order,
// and resumes the unfinished jobs.  It writes only to a journal whose job
// cannot resume.
func (co *Coordinator) resume() error {
	files, err := filepath.Glob(filepath.Join(co.cfg.LedgerDir, "*.jsonl"))
	if err != nil {
		return err
	}
	slices.Sort(files)
	for _, path := range files {
		// A journal's file name is its job ID, and reserves it whether or
		// not a job loads from it: one holding only a job record torn by a
		// crash must not be reused, or the new job would append to the
		// debris.
		co.bumpNextID(strings.TrimSuffix(filepath.Base(path), ".jsonl"))
		lj, err := loadLedgerFile(path)
		if err != nil {
			return fmt.Errorf("service: ledger %s: %w", path, err)
		}
		if lj == nil || lj.State != "" {
			continue // no job, or a finished one: nothing to resume
		}
		err = lj.Err
		if err == nil {
			err = co.resumeJob(lj)
		}
		if err != nil {
			// Record the job failed, with the reason, so the ledger reports
			// it and the next restart does not retry it.
			if led, lerr := OpenLedger(co.cfg.LedgerDir, lj.ID); lerr == nil {
				led.RecordState(stateFailed, err.Error())
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
		wireOpts:   WireOptions(coreOpts),
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
	body := http.MaxBytesReader(w, r.Body, maxSubmitBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	clear := bodyDeadline(w)
	err := dec.Decode(&req)
	if err == nil {
		// Read to the end within the deadline: once it is cleared, net/http
		// would wait without one for declared bytes after the JSON value.
		_, err = io.Copy(io.Discard, body)
	}
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	clear()
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

	wireOpts := WireOptions(coreOpts)
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
		led.RecordJob(id, req.Name, hash, bench, wireOpts, req.Faults)
	}
	co.addJob(&job{
		id:         id,
		name:       req.Name,
		hash:       hash,
		cacheHit:   hit,
		wireOpts:   wireOpts,
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
	ls := j.leases
	if j.pass != nil {
		ls = j.pass.q.Stats()
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
	writeJSON(w, http.StatusOK, JobSpec{JobID: j.id, CircuitHash: j.hash, Options: j.wireOpts})
}

func (co *Coordinator) handleCircuit(w http.ResponseWriter, r *http.Request) {
	bench, ok := co.cache.Bench(r.PathValue("hash"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown-circuit", "circuit not cached")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(bench)))
	_, _ = io.WriteString(w, bench)
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
	resp := ResultsResponse{JobID: j.id, State: j.state, Tests: j.testsText, Stats: j.stats}
	results := j.results
	j.mu.Unlock()
	resp.Results = resultColumns(nil, results)
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
	var (
		index   []int
		results []core.FaultResult
		resp    EventsResponse
	)
	if co.park(w, r, &j.evSig, waitQuery(r), func() bool {
		j.evMu.Lock()
		defer j.evMu.Unlock()
		// Settled entries never change, so the page renders them after the
		// lock is released.
		from = min(from, len(j.evIndex))
		index, results = j.evIndex[from:], j.evResults[from:]
		resp = EventsResponse{Next: len(j.evIndex), Done: j.evDone}
		return len(index) > 0 || resp.Done
	}) {
		resp.Events = resultColumns(index, results)
		co.reply(w, resp)
	}
}

// handleLease hands out units of the oldest running job that has pending
// work.  A request with a wait window parks until a unit is leasable; 204
// means nothing was leasable within it.
func (co *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	// decodeBody reads the body to its end: net/http notices that a parked
	// client hung up only once the request body is consumed.
	var req LeaseRequest
	if err := decodeBody(w, r, maxLeaseBody, &req); err != nil {
		writeBodyErr(w, err)
		return
	}
	if req.Worker == "" {
		writeErr(w, http.StatusBadRequest, "bad-request", "worker id required")
		return
	}
	max := req.MaxUnits
	if max <= 0 {
		max = unitsPerLease
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
// pending work, with the tests the job's other workers reported since the
// worker's previous lease of it.
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
		resp := LeaseResponse{JobID: j.id, Units: make([]WireUnit, len(leased))}
		if j.simOn {
			resp.Patterns = j.exch.since(worker)
		}
		for k, lu := range leased {
			faults := make([]WireFault, len(lu.Unit.Faults))
			for i, fi := range lu.Unit.Faults {
				faults[i] = j.wireFaults[fi]
			}
			resp.Units[k] = WireUnit{ID: lu.ID, Faults: faults}
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

// handlePostResults folds a worker's batch into the run through the apply
// path ledger replay takes too (checkUnit, applyUnit).  Completion and Apply
// happen under j.mu — that, plus runPass re-acquiring j.mu after the queue
// drains, is the happens-before barrier core.RemoteRun requires.
func (co *Coordinator) handlePostResults(w http.ResponseWriter, r *http.Request) {
	j := co.job(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown-job", "no such job")
		return
	}
	var req PostResults
	if err := decodeBody(w, r, maxResultsBody, &req); err != nil {
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
	if j.state != stateRunning || ps == nil {
		j.mu.Unlock()
		// At-least-once delivery meeting a finished pass: discard, no error.
		writeJSON(w, http.StatusOK, PostResultsResponse{Stale: true})
		return
	}
	// Check everything before completing anything, so a malformed batch is
	// refused whole and the worker's retry is not a duplicate.
	decoded := make([][]core.RemoteOutcome, len(req.Units))
	for i := range req.Units {
		ur := &req.Units[i]
		outs, err := j.checkUnit(ps, ur.ID, &ur.Outcomes)
		if err != nil {
			j.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "bad-unit", err.Error())
			return
		}
		decoded[i] = outs
	}
	j.rr.AddEffort(req.Effort)
	for i := range req.Units {
		ur := &req.Units[i]
		// A duplicate completion applies nothing: the first write won.
		if j.applyUnit(ps, ur.ID, req.Worker, decoded[i], ur.Outcomes.Tests) {
			j.ledger.RecordUnit(ur.ID, req.Worker, &ur.Outcomes)
		}
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, PostResultsResponse{})
}
