package service

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/retry"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// ID names this worker in leases and published patterns; it must be
	// unique among the workers of one coordinator.
	ID string
	// MaxUnits is the lease batch size: leasing several units per round
	// trip amortizes the wire latency over more generation work.  Default 4.
	MaxUnits int
	// Poll is the idle backoff when nothing is leasable.  Default 100ms.
	// The actual sleep is jittered in [Poll/2, 3*Poll/2) — a fleet of idle
	// workers spreads out instead of leasing in lockstep — and coordinator
	// errors back off exponentially from Poll instead of hammering a
	// restarting coordinator on a flat period.
	Poll time.Duration
	// JobPoll is the period of the per-job status watch that propagates
	// coordinator-side cancellation into running generation.  Default 500ms.
	JobPoll time.Duration
	// CacheSize bounds the worker's own compiled-circuit cache.  Default 64.
	CacheSize int
	// Transport overrides the HTTP transport of the worker's client — the
	// chaos injector enters here.  nil uses the default transport.
	Transport http.RoundTripper
	// Seed pins the jitter sequence; 0 derives a stable per-ID seed, so a
	// named worker's idle schedule is reproducible but fleet-unique.
	Seed int64
}

// WorkerCounters exposes the loop's behavior: tests and operators read them
// to verify backoff actually engaged instead of inferring it from logs.
type WorkerCounters struct {
	// Leases counts successful non-empty lease grants.
	Leases int64
	// Units counts work units processed (whether or not the post landed).
	Units int64
	// IdlePolls counts empty (204) lease responses.
	IdlePolls int64
	// LeaseErrors counts failed lease round trips (after client retries).
	LeaseErrors int64
	// Backoff is the effective backoff: the duration of the most recent
	// idle or error sleep.
	Backoff time.Duration
}

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.ID == "" {
		cfg.ID = "worker"
	}
	if cfg.MaxUnits <= 0 {
		cfg.MaxUnits = 4
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 100 * time.Millisecond
	}
	if cfg.JobPoll <= 0 {
		cfg.JobPoll = 500 * time.Millisecond
	}
	return cfg
}

// Worker is one remote generation process: it leases whole work units from
// the coordinator, runs them through a job-local core.Generator (compiled
// from the coordinator's cached circuit), and posts outcomes, fresh verified
// patterns and search-effort deltas back.  Foreign patterns fetched from the
// exchange feed the generator's claim sweep, so cross-worker dropping works
// exactly as it does between local shards.
type Worker struct {
	cfg   WorkerConfig
	cl    *Client
	cache *Cache

	leases, units, idlePolls, leaseErrors atomic.Int64
	backoffNS                             atomic.Int64

	mu   sync.Mutex
	rng  *rand.Rand // jitter source; guarded by mu
	jobs map[string]*workerJob
}

// workerJob is the per-job state a worker keeps between leases.
type workerJob struct {
	id     string
	ctx    context.Context
	cancel context.CancelFunc
	gen    *core.Generator
	faults []paths.Fault
	simOn  bool
	// published is how much of the local generator's test set has been
	// posted to the exchange; cursor is the exchange fetch position.
	published int
	cursor    int
}

// NewWorker builds a worker for the coordinator named in the config.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	var opts []ClientOption
	if cfg.Transport != nil {
		opts = append(opts, WithTransport(cfg.Transport))
	}
	seed := cfg.Seed
	if seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(cfg.ID))
		seed = int64(h.Sum64())
	}
	return &Worker{
		cfg:   cfg,
		cl:    NewClient(cfg.Coordinator, opts...),
		cache: NewCache(cfg.CacheSize),
		rng:   rand.New(rand.NewSource(seed)),
		jobs:  make(map[string]*workerJob),
	}
}

// Counters snapshots the worker's loop counters.
func (wk *Worker) Counters() WorkerCounters {
	return WorkerCounters{
		Leases:      wk.leases.Load(),
		Units:       wk.units.Load(),
		IdlePolls:   wk.idlePolls.Load(),
		LeaseErrors: wk.leaseErrors.Load(),
		Backoff:     time.Duration(wk.backoffNS.Load()),
	}
}

// idleJitter draws the next idle sleep from [Poll/2, 3*Poll/2).
func (wk *Worker) idleJitter() time.Duration {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return wk.cfg.Poll/2 + time.Duration(wk.rng.Int63n(int64(wk.cfg.Poll)))
}

// Run leases and processes units until the context ends.  Transient
// coordinator errors (it may be restarting) back off with decorrelated
// jitter — from Poll up to errorBackoffCap — instead of hammering a
// recovering coordinator on a flat period; idle polls sleep a jittered
// Poll so a fleet of idle workers does not lease in lockstep.
//
//atpgvet:ctxloop
func (wk *Worker) Run(ctx context.Context) error {
	errBackoff := retry.Policy{
		Initial:  wk.cfg.Poll,
		Max:      errorBackoffCap(wk.cfg.Poll),
		Attempts: -1, // the context ends the loop, not an attempt budget
		Seed:     wk.rng.Int63(),
	}.Backoff()
	for ctx.Err() == nil {
		lease, ok, err := wk.cl.Lease(ctx, wk.cfg.ID, wk.cfg.MaxUnits)
		switch {
		case err != nil:
			wk.leaseErrors.Add(1)
			wk.backoffNS.Store(int64(nextDelay(errBackoff)))
			wk.sleep(ctx, time.Duration(wk.backoffNS.Load()))
		case !ok:
			wk.idlePolls.Add(1)
			errBackoff.Reset()
			d := wk.idleJitter()
			wk.backoffNS.Store(int64(d))
			wk.sleep(ctx, d)
		default:
			wk.leases.Add(1)
			errBackoff.Reset()
			wk.backoffNS.Store(0)
			wk.process(ctx, lease)
		}
	}
	wk.dropAll()
	return ctx.Err()
}

// errorBackoffCap bounds the error backoff: generous enough to ride out a
// coordinator restart, short enough to rejoin promptly.
func errorBackoffCap(poll time.Duration) time.Duration {
	limit := 20 * poll
	if limit < 2*time.Second {
		limit = 2 * time.Second
	}
	if limit > 10*time.Second {
		limit = 10 * time.Second
	}
	return limit
}

// nextDelay reads the backoff's next delay; the unlimited attempt budget
// means ok can only be false on a time budget, which the policy does not set.
func nextDelay(b *retry.Backoff) time.Duration {
	d, _ := b.Next()
	return d
}

func (wk *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// process runs one leased batch through the job's generator and posts the
// results.  Failures simply drop the batch: the lease expires and the
// coordinator requeues the units (at-least-once delivery).
func (wk *Worker) process(ctx context.Context, lease LeaseResponse) {
	wj, err := wk.jobState(ctx, lease)
	if err != nil {
		return
	}

	// Pull the exchange delta so the claim sweep can drop faults other
	// workers already covered.  Foreign patterns accumulate inside the
	// generator, so handing them to the first unit of the batch suffices.
	var foreign []pattern.Pair
	if wj.simOn {
		if pr, err := wk.cl.Patterns(ctx, wj.id, wj.cursor); err == nil {
			wj.cursor = pr.Next
			for _, wp := range pr.Patterns {
				if wp.Worker == wk.cfg.ID {
					continue
				}
				if p, err := pattern.ParsePair(wp.Test); err == nil {
					foreign = append(foreign, p)
				}
			}
		}
	}

	prev := wj.gen.Stats()
	post := PostResults{Worker: wk.cfg.ID, Pass: lease.Pass}
	for _, u := range lease.Units {
		ufaults := make([]paths.Fault, len(u.Faults))
		for i, fi := range u.Faults {
			if fi < 0 || fi >= len(wj.faults) {
				return // malformed lease; let it expire
			}
			ufaults[i] = wj.faults[fi]
		}
		outs := wj.gen.ProcessRemoteUnit(wj.ctx, ufaults, foreign)
		wk.units.Add(1)
		foreign = nil
		wire := make([]WireOutcome, len(outs))
		for i, o := range outs {
			wire[i] = EncodeOutcome(o)
		}
		post.Units = append(post.Units, UnitResult{ID: u.ID, Faults: u.Faults, Outcomes: wire})
	}
	if wj.ctx.Err() != nil || ctx.Err() != nil {
		// Canceled mid-batch: the outcomes may be truncated.  Drop the batch
		// and let the leases expire instead of reporting partial work.
		return
	}
	set := wj.gen.TestSet()
	for _, p := range set.Pairs[wj.published:] {
		post.Patterns = append(post.Patterns, WirePattern{Worker: wk.cfg.ID, Test: p.String()})
	}
	wj.published = set.Len()
	post.Effort = wj.gen.Stats().EffortDelta(prev)

	resp, err := wk.cl.PostUnitResults(ctx, wj.id, post)
	if err != nil {
		return
	}
	if resp.Canceled {
		wk.dropJob(wj.id)
	}
}

// jobState returns (building on first use) the worker's state for a job:
// a generator over the coordinator's circuit plus the decoded fault list,
// and a watcher that cancels the job context when the coordinator reports
// the job finished or canceled.
func (wk *Worker) jobState(ctx context.Context, lease LeaseResponse) (*workerJob, error) {
	wk.mu.Lock()
	wj, ok := wk.jobs[lease.JobID]
	wk.mu.Unlock()
	if ok {
		return wj, nil
	}

	spec, err := wk.cl.Spec(ctx, lease.JobID)
	if err != nil {
		return nil, err
	}
	c, ok := wk.cache.Get(spec.CircuitHash)
	if !ok {
		bench, err := wk.cl.CircuitBench(ctx, spec.CircuitHash)
		if err != nil {
			return nil, err
		}
		c, _, err = wk.cache.Compile("", bench)
		if err != nil {
			return nil, err
		}
	}
	opts, err := spec.Options.ToCore()
	if err != nil {
		return nil, err
	}
	faults, err := DecodeFaults(c, spec.Faults)
	if err != nil {
		return nil, err
	}
	jctx, cancel := context.WithCancel(ctx)
	wj = &workerJob{
		id:     lease.JobID,
		ctx:    jctx,
		cancel: cancel,
		gen:    core.New(c, opts),
		faults: faults,
		simOn:  lease.SimOn,
	}
	wk.mu.Lock()
	if prior, ok := wk.jobs[lease.JobID]; ok {
		wk.mu.Unlock()
		cancel()
		return prior, nil
	}
	wk.jobs[lease.JobID] = wj
	wk.mu.Unlock()
	go wk.watch(wj)
	return wj, nil
}

// watch propagates coordinator-side job termination into the worker: once
// the job is done, canceled or gone, its context is canceled so in-flight
// generation stops at the next check point.
func (wk *Worker) watch(wj *workerJob) {
	t := time.NewTicker(wk.cfg.JobPoll)
	defer t.Stop()
	for {
		select {
		case <-wj.ctx.Done():
			return
		case <-t.C:
			st, err := wk.cl.Status(wj.ctx, wj.id)
			if err != nil {
				var apiErr *APIError
				if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
					wk.dropJob(wj.id)
					return
				}
				continue // transient; the coordinator may be restarting
			}
			switch st.State {
			case stateDone, stateCanceled, stateFailed:
				wk.dropJob(wj.id)
				return
			}
		}
	}
}

// dropJob cancels and forgets the worker's state for a job.
func (wk *Worker) dropJob(id string) {
	wk.mu.Lock()
	wj, ok := wk.jobs[id]
	if ok {
		delete(wk.jobs, id)
	}
	wk.mu.Unlock()
	if ok {
		wj.cancel()
	}
}

func (wk *Worker) dropAll() {
	wk.mu.Lock()
	jobs := wk.jobs
	wk.jobs = make(map[string]*workerJob)
	wk.mu.Unlock()
	for _, wj := range jobs {
		wj.cancel()
	}
}
