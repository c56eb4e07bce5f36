package service

import (
	"context"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/retry"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// ID names this worker in leases and in the pattern exchange; it must
	// be unique among the workers of one coordinator.
	ID string
	// Transport overrides the HTTP transport of the worker's client — the
	// chaos injector enters here.  nil uses the default transport.
	Transport http.RoundTripper
}

// The error backoff of the lease loop: after a failed lease round trip the
// worker sleeps a decorrelated-jitter delay from errBackoffFloor up to
// errBackoffCap — generous enough to ride out a coordinator restart, short
// enough to rejoin promptly.
const (
	errBackoffFloor = 100 * time.Millisecond
	errBackoffCap   = 2 * time.Second
)

// WorkerCounters exposes the loop's behavior: tests and operators read them
// to verify backoff actually engaged instead of inferring it from logs.
type WorkerCounters struct {
	// Leases counts successful non-empty lease grants.
	Leases int64
	// Units counts work units processed (whether or not the post landed).
	Units int64
	// IdlePolls counts lease waits that ended empty: the coordinator held
	// the request for its whole window without a unit to grant.
	IdlePolls int64
	// LeaseErrors counts failed lease round trips (after client retries).
	// A call cut short by the worker's own context is not one.
	LeaseErrors int64
	// Backoff is the most recent error backoff sleep; 0 once a lease round
	// trip succeeds again.
	Backoff time.Duration
}

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	if cfg.ID == "" {
		cfg.ID = "worker"
	}
	return cfg
}

// Worker is one remote generation process: it leases whole work units from
// the coordinator, runs them through a job-local core.Generator (compiled
// from the coordinator's cached circuit), and posts outcomes and search
// effort back.  The foreign patterns a lease carries join the generator's
// pattern pool, which its claim sweep reads, so cross-worker dropping works
// exactly as it does between local shards.
type Worker struct {
	cfg   WorkerConfig
	cl    *Client
	cache *Cache

	leases, units, idlePolls, leaseErrors atomic.Int64
	backoffNS                             atomic.Int64

	mu   sync.Mutex
	jobs map[string]*workerJob
}

// workerJob is the per-job state a worker keeps between leases.
type workerJob struct {
	id     string
	ctx    context.Context
	cancel context.CancelFunc
	gen    *core.Generator
}

// NewWorker builds a worker for the coordinator named in the config.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	var opts []ClientOption
	if cfg.Transport != nil {
		opts = append(opts, WithTransport(cfg.Transport))
	}
	return &Worker{
		cfg:   cfg,
		cl:    NewClient(cfg.Coordinator, opts...),
		cache: NewCache(),
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

// Run leases and processes units until the context ends.  Each lease
// request parks on the coordinator until a unit is leasable or the wait
// window ends, so an idle worker sends one request per window and picks up
// a new pass the moment it starts.  A failed round trip (the coordinator
// may be restarting) backs off with decorrelated jitter between
// errBackoffFloor and errBackoffCap instead of hammering it; the jitter
// seed derives from the worker ID, so a named worker's schedule replays.
//
//atpgvet:ctxloop
func (wk *Worker) Run(ctx context.Context) error {
	h := fnv.New64a()
	_, _ = h.Write([]byte(wk.cfg.ID))
	errBackoff := retry.Policy{
		Initial:  errBackoffFloor,
		Max:      errBackoffCap,
		Attempts: -1, // the context ends the loop, not an attempt budget
		Seed:     int64(h.Sum64()),
	}.Backoff()
	for ctx.Err() == nil {
		lease, ok, err := wk.cl.Lease(ctx, wk.cfg.ID, unitsPerLease, longPollWait)
		switch {
		case ctx.Err() != nil:
			// The worker's own context ended the call: not a lease error.
		case err != nil:
			// Backoff before the count, so a reader that sees the error
			// also sees its delay.
			d, _ := errBackoff.Next() // no attempt budget: always ok
			wk.backoffNS.Store(int64(d))
			wk.leaseErrors.Add(1)
			wk.sleep(ctx, d)
		case !ok:
			wk.idlePolls.Add(1)
			errBackoff.Reset()
			wk.backoffNS.Store(0)
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

	// The lease carries the tests other workers reported since this
	// worker's previous lease, so the claim sweep can drop faults they
	// already cover.  They join the generator's pattern pool, so handing
	// them to the first unit of the batch suffices.
	var foreign []pattern.Pair
	for _, s := range lease.Patterns {
		if p, err := pattern.ParsePair(s); err == nil {
			foreign = append(foreign, p)
		}
	}

	post := PostResults{Worker: wk.cfg.ID, Units: make([]UnitResult, 0, len(lease.Units))}
	for _, u := range lease.Units {
		faults, err := DecodeFaults(wj.gen.Circuit(), u.Faults)
		if err != nil {
			return // malformed lease; let it expire
		}
		outs, effort := wj.gen.ProcessRemoteUnit(wj.ctx, faults, foreign)
		post.Effort.Add(effort)
		wk.units.Add(1)
		foreign = nil
		post.Units = append(post.Units, UnitResult{ID: u.ID, Outcomes: outcomeColumns(outs)})
	}
	if wj.ctx.Err() != nil || ctx.Err() != nil {
		// Canceled mid-batch: the outcomes may be truncated.  Drop the batch
		// and let the leases expire instead of reporting partial work.
		return
	}

	resp, err := wk.cl.PostUnitResults(ctx, wj.id, post)
	if err != nil {
		return
	}
	if resp.Canceled {
		wk.dropJob(wj.id)
	}
}

// jobState returns (building on first use) the worker's state for a job:
// a generator over the coordinator's circuit, and a watcher that cancels the
// job context when the coordinator reports the job finished or canceled.
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
	jctx, cancel := context.WithCancel(ctx)
	wj = &workerJob{
		id:     lease.JobID,
		ctx:    jctx,
		cancel: cancel,
		gen:    core.New(c, opts),
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

// watch propagates coordinator-side job termination into the worker: it
// waits on the job's state, and once the job is done, canceled or gone,
// cancels the job context so in-flight generation stops at the next check
// point.
func (wk *Worker) watch(wj *workerJob) {
	if _, err := wk.cl.Wait(wj.ctx, wj.id); err != nil && wj.ctx.Err() != nil {
		return // dropped already, or the worker is stopping
	}
	wk.dropJob(wj.id)
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
