package main

// This file holds every call the benchmark makes into repro/internal: the
// hard-tail fault scoring, the layer probes of the traced pass and the
// in-process service fleet.  The rest of the benchmark drives the public
// facade repro/atpg only.  The probes use constructors and methods; of the
// option structs they set only the fields the facade options map to.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/atpg"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/implic"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sensitize"
	"repro/internal/service"
	"repro/internal/testability"
)

// layerMetrics lists the per-layer metrics of the traced pass with their
// units; BENCHMARK.json lists the same names.  Every workload reports all
// of them: the service metrics read 0 on the in-process workloads, the
// compaction metrics 0 where the workload does not compact.
var layerMetrics = []struct{ name, unit string }{
	{"bench.synth_ms", "ms"},
	{"circuit.parse_ms", "ms"},
	{"testability.analyze_ms", "ms"},
	{"paths.sample_ms", "ms"},
	{"sensitize.ms", "ms"},
	{"sensitize.self_conflicting", "count"},
	{"implic.imply_ns", "ns"},
	{"implic.imply_sim_ns", "ns"},
	{"implic.allocs_per_decision", "count"},
	{"core.run_s", "s"},
	{"core.sensitize_s", "s"},
	{"core.generate_s", "s"},
	{"core.implications", "count"},
	{"core.decisions", "count"},
	{"core.backtracks", "count"},
	{"core.fptpg_groups", "count"},
	{"core.aptpg_faults", "count"},
	{"core.settled.fptpg", "count"},
	{"core.settled.aptpg", "count"},
	{"core.settled.sim", "count"},
	{"core.settled.pruning", "count"},
	{"core.aptpg_yield", "ratio"},
	{"core.cpu_ns_per_implication", "ns"},
	{"sched.units", "count"},
	{"sched.steals", "count"},
	{"sched.idle_units", "count"},
	{"sched.util", "ratio"},
	{"faultsim.ms", "ms"},
	{"faultsim.pair_faults_per_us", "1/us"},
	{"faultsim.redundant_detected", "count"},
	{"compact.ms", "ms"},
	{"compact.reduction", "ratio"},
	{"compact.merged", "count"},
	{"compact.sim_dropped", "count"},
	{"compact.pairs_after", "count"},
	{"service.submit.calls", "count"},
	{"service.submit.p50_ms", "ms"},
	{"service.submit.req_kb", "KB"},
	{"service.submit.resp_kb", "KB"},
	{"service.lease.calls", "count"},
	{"service.lease.p50_ms", "ms"},
	{"service.lease.p90_ms", "ms"},
	{"service.lease.req_kb", "KB"},
	{"service.lease.resp_kb", "KB"},
	{"service.unit_results.calls", "count"},
	{"service.unit_results.p50_ms", "ms"},
	{"service.unit_results.p90_ms", "ms"},
	{"service.unit_results.req_kb", "KB"},
	{"service.unit_results.resp_kb", "KB"},
	{"service.spec.calls", "count"},
	{"service.spec.p50_ms", "ms"},
	{"service.spec.req_kb", "KB"},
	{"service.spec.resp_kb", "KB"},
	{"service.status.calls", "count"},
	{"service.status.p50_ms", "ms"},
	{"service.status.req_kb", "KB"},
	{"service.status.resp_kb", "KB"},
	{"service.results.calls", "count"},
	{"service.results.p50_ms", "ms"},
	{"service.results.req_kb", "KB"},
	{"service.results.resp_kb", "KB"},
	{"service.lease_pickup_ms", "ms"},
	{"service.notify_lag_ms", "ms"},
	{"service.overhead_s", "s"},
	{"service.idle_polls", "count"},
	{"service.lease_errors", "count"},
	{"service.cache_hitrate", "ratio"},
	{"service.ledger_kb", "KB"},
	{"trace.overhead_pct", "%"},
}

// hardest returns the keep faults with the highest testability score among
// a sample of n faults of the named circuit; equal scores keep sample order.
// It is the ranking behind the atpg package's BenchmarkGroupingWide.
func hardest(name string, n, keep int, mode atpg.Mode) ([]atpg.Fault, error) {
	c, err := bench.Get(name)
	if err != nil {
		return nil, err
	}
	sample := paths.SampleFaults(c, n, populationSeed)
	tm := testability.For(c)
	scores := make([]int, len(sample))
	order := make([]int, len(sample))
	for i, f := range sample {
		scores[i] = tm.FaultScore(c, f, mode)
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return scores[order[i]] > scores[order[j]] })
	out := make([]atpg.Fault, min(keep, len(order)))
	for i := range out {
		out[i] = sample[order[i]]
	}
	return out, nil
}

// probeLayers is the traced part of one rep: it times calls into each
// layer's public functions on the instance's circuit and the rep's fault
// order, checks the traced outputs, and returns the layer metrics together
// with the wall time of the core run plus compaction — the traced
// counterpart of Engine.Run.
func probeLayers(ctx context.Context, tr *tracer, in *instance, o order, twin bool) (map[string]float64, time.Duration, error) {
	w := in.w
	m := map[string]float64{}

	endSetup := tr.start("setup", "rep")
	end := tr.start("bench.synth", "setup")
	c, err := bench.Get(w.circuit)
	m["bench.synth_ms"] = ms(end())
	if err != nil {
		endSetup()
		return nil, 0, err
	}
	text := circuit.BenchString(c)
	end = tr.start("circuit.parse", "setup")
	_, err = circuit.ParseBenchString(w.circuit, text)
	m["circuit.parse_ms"] = ms(end())
	if err != nil {
		endSetup()
		return nil, 0, err
	}
	end = tr.start("testability.analyze", "setup")
	testability.Analyze(c)
	m["testability.analyze_ms"] = ms(end())
	end = tr.start("paths.sample", "setup")
	paths.SampleFaults(c, in.sampled, populationSeed)
	m["paths.sample_ms"] = ms(end())
	endSetup()

	end = tr.start("sensitize", "rep")
	selfConflicting := 0
	for _, f := range o.faults {
		cond, err := sensitize.Sensitize(c, f, w.mode)
		if err != nil {
			end()
			return nil, 0, err
		}
		if cond.SelfConflicting() {
			selfConflicting++
		}
	}
	m["sensitize.ms"] = ms(end())
	m["sensitize.self_conflicting"] = float64(selfConflicting)

	implyNS, implySimNS, allocs, err := probeImplic(tr, c, in.population, w.mode, w.width)
	if err != nil {
		return nil, 0, err
	}
	m["implic.imply_ns"] = implyNS
	m["implic.imply_sim_ns"] = implySimNS
	m["implic.allocs_per_decision"] = allocs

	// With twin set, the core run and compaction run a second time without
	// spans, first on even reps and second on odd ones, and
	// trace.overhead_pct compares the two.
	var cr, untraced *coreRun
	for i := range 2 {
		if i == tr.rep%2 {
			cr, err = runCore(ctx, tr, in, c, o)
		} else if twin {
			untraced, err = runCore(ctx, nil, in, c, o)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if twin {
		if err := in.checkResults(untraced.results, o); err != nil {
			return nil, 0, fmt.Errorf("untraced twin: %w", err)
		}
		m["trace.overhead_pct"] = 100 * (cr.wall().Seconds()/untraced.wall().Seconds() - 1)
	}
	results, g, coreWall, coreCPU := cr.results, cr.g, cr.coreWall, cr.coreCPU
	if err := in.checkResults(results, o); err != nil {
		return nil, 0, fmt.Errorf("traced %w", err)
	}
	st := g.Stats()
	settled := map[core.Phase]int{}
	for _, r := range results {
		if r.Status != core.Aborted {
			settled[r.Phase]++
		}
	}
	m["core.run_s"] = coreWall.Seconds()
	m["core.sensitize_s"] = st.SensitizeTime.Seconds()
	m["core.generate_s"] = st.GenerateTime.Seconds()
	m["core.implications"] = float64(st.Implications)
	m["core.decisions"] = float64(st.Decisions)
	m["core.backtracks"] = float64(st.Backtracks)
	m["core.fptpg_groups"] = float64(st.FPTPGGroups)
	m["core.aptpg_faults"] = float64(st.APTPGFaults)
	m["core.settled.fptpg"] = float64(settled[core.PhaseFPTPG])
	m["core.settled.aptpg"] = float64(settled[core.PhaseAPTPG])
	m["core.settled.sim"] = float64(settled[core.PhaseSimulation])
	m["core.settled.pruning"] = float64(settled[core.PhasePruning])
	m["core.aptpg_yield"] = ratio(float64(settled[core.PhaseAPTPG]), float64(st.APTPGFaults))
	m["core.cpu_ns_per_implication"] = ratio(float64(coreCPU.Nanoseconds()), float64(st.Implications))
	m["sched.units"] = float64(st.Sched.Units)
	m["sched.steals"] = float64(st.Sched.Steals)
	m["sched.idle_units"] = float64(st.Sched.IdleUnits)
	m["sched.util"] = ratio(coreCPU.Seconds(), coreWall.Seconds()*workers)

	set := cr.set
	m["compact.ms"] = ms(cr.compactWall)
	m["compact.reduction"] = cr.compaction.Reduction()
	m["compact.merged"] = float64(cr.compaction.Merged)
	m["compact.sim_dropped"] = float64(cr.compaction.SimDropped)
	m["compact.pairs_after"] = float64(set.Len())

	end = tr.start("faultsim", "rep")
	redundantDetected, err := checkSimulation(in.c, set.Pairs, o.faults, results, in.robust(), st.Tested+st.DetectedBySim)
	simWall := end()
	if err != nil {
		return nil, 0, fmt.Errorf("traced %w", err)
	}
	m["faultsim.ms"] = ms(simWall)
	m["faultsim.redundant_detected"] = float64(redundantDetected)
	m["faultsim.pair_faults_per_us"] = ratio(float64(set.Len()*len(o.faults)), float64(simWall.Nanoseconds())/1e3)
	return m, cr.wall(), nil
}

// coreRun is one core run followed by compaction: the traced counterpart of
// Engine.Run.
type coreRun struct {
	g          *core.Generator
	results    []core.FaultResult
	set        *pattern.Set // the final test set
	compaction compact.Stats
	// Wall and CPU time of the core run, wall time of the compaction.
	coreWall, coreCPU, compactWall time.Duration
}

func (cr *coreRun) wall() time.Duration { return cr.coreWall + cr.compactWall }

// runCore runs core.New and core.RunSharded on the order, then
// compact.Compact at the workload's level, with a span around each unless
// tr is nil.  The core run leaves compaction to the explicit call, so the
// two layers are timed apart; EmitUnfilled keeps the don't-care form full
// compaction merges on.
func runCore(ctx context.Context, tr *tracer, in *instance, c *circuit.Circuit, o order) (*coreRun, error) {
	w := in.w
	opts := core.DefaultOptions(w.mode)
	opts.WordWidth = w.width
	opts.FaultSimInterval = w.width
	if w.simOff {
		opts.FaultSimInterval = 0
	}
	opts.EmitUnfilled = w.compaction == compact.Full
	cr := &coreRun{g: core.New(c, opts)}
	runtime.GC() // as before a timed rep: what ran before leaves garbage
	cpu0 := cpuTime()
	end := tr.start("core.run", "rep")
	cr.results = core.RunSharded(ctx, cr.g, o.faults, workers)
	cr.coreWall = end()
	cr.coreCPU = cpuTime() - cpu0
	cr.set = cr.g.TestSet()
	if w.compaction != compact.None {
		end = tr.start("compact", "rep")
		out, cst, err := compact.Compact(c, cr.set, o.faults, in.robust(), w.compaction, compact.ZeroFill())
		cr.compactWall = end()
		if err != nil {
			return nil, err
		}
		cr.set, cr.compaction = out, cst
	}
	return cr, nil
}

// probeDecisions is the number of framed decisions each implication probe
// times: about 60 ms on c880 at L=64.
const probeDecisions = 1024

// probeImplic times one framed decision — Assign, AssignPI, Imply,
// optionally ForwardSim, Undo — on a state loaded with the sensitization
// requirements of width target faults, one per bit level, as the generator's
// state is when it starts deciding (the implic package's BenchmarkImply and
// BenchmarkForwardSim at the workload's circuit and width).  It returns the
// ns per decision without and with simulation, and the allocations per
// simulated decision.
func probeImplic(tr *tracer, c *circuit.Circuit, faults []paths.Fault, mode sensitize.Mode, width int) (implyNS, simNS, allocs float64, err error) {
	st := implic.NewStateWidth(c, width)
	st.Reset(logic.LevelsMask(width))
	for lvl := 0; lvl < width; lvl++ {
		cond, err := sensitize.Sensitize(c, faults[lvl%len(faults)], mode)
		if err != nil {
			return 0, 0, 0, err
		}
		for _, a := range cond.Assignments {
			st.AddRequirement(a.Net, a.Value, logic.BitMask(lvl))
		}
	}
	st.Imply()
	st.ForwardSim()
	inputs := c.Inputs()
	decide := func(i int, sim bool) {
		v := logic.Stable1
		if i%2 == 1 {
			v = logic.Stable0
		}
		st.Assign()
		st.AssignPI(inputs[i%len(inputs)], v, st.Active())
		st.Imply()
		if sim {
			st.ForwardSim()
		}
		st.Undo()
	}
	for i := 0; i < probeDecisions; i++ {
		decide(i, true) // grow the trail and queue capacities first
	}
	t0 := time.Now()
	for i := 0; i < probeDecisions; i++ {
		decide(i, false)
	}
	t1 := time.Now()
	// Allocations count over the simulating loop only: without ForwardSim
	// the pending simulation list is never drained and keeps growing.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t2 := time.Now()
	for i := 0; i < probeDecisions; i++ {
		decide(i, true)
	}
	t3 := time.Now()
	runtime.ReadMemStats(&m1)
	tr.add("implic.imply", "rep", t0, t1)
	tr.add("implic.imply_sim", "rep", t2, t3)
	return float64(t1.Sub(t0).Nanoseconds()) / probeDecisions,
		float64(t3.Sub(t2).Nanoseconds()) / probeDecisions,
		float64(m1.Mallocs-m0.Mallocs) / probeDecisions, nil
}

// fleet is an in-process ATPG service: a coordinator with a ledger, behind
// the route recorder and an httptest loopback server, and two workers at
// their production defaults.  The workers poll the coordinator while they
// run, so they run only while the service workload does: pause stops them
// between its reps, and resume starts the same workers again, their circuit
// caches kept.  The coordinator does no work between jobs.
type fleet struct {
	url     string
	co      *service.Coordinator
	srv     *httptest.Server
	rec     *recorder
	workers []*service.Worker
	ledger  string
	stop    context.CancelFunc // nil while paused
	wg      sync.WaitGroup
}

// startFleet starts a fleet, its workers running, whose ledger lives in a
// fresh directory under dir.
func startFleet(dir string) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ledger, err := os.MkdirTemp(dir, "ledger-")
	if err != nil {
		return nil, err
	}
	co, err := service.NewCoordinator(service.Config{LedgerDir: ledger})
	if err != nil {
		_ = os.RemoveAll(ledger)
		return nil, err
	}
	f := &fleet{co: co, ledger: ledger, rec: &recorder{next: co}}
	f.srv = httptest.NewServer(f.rec)
	f.url = f.srv.URL
	for i := range workers {
		f.workers = append(f.workers, service.NewWorker(service.WorkerConfig{Coordinator: f.url, ID: fmt.Sprintf("w%d", i+1)}))
	}
	f.resume()
	return f, nil
}

// resume starts the workers unless they run already.
func (f *fleet) resume() {
	if f.stop != nil {
		return
	}
	ctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	for _, wk := range f.workers {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = wk.Run(ctx) // returns only the cancellation pause causes
		}()
	}
}

// pause stops the workers and waits until they have returned.
func (f *fleet) pause() {
	if f.stop == nil {
		return
	}
	f.stop()
	f.wg.Wait()
	f.stop = nil
}

// close stops the workers, then shuts the server and the coordinator down
// and removes the ledger.
func (f *fleet) close() {
	f.pause()
	f.srv.Close()
	f.co.Close()
	_ = os.RemoveAll(f.ledger) // scratch data; a leftover is only disk space
}

// counters sums the workers' idle polls and failed lease round trips.
func (f *fleet) counters() (idlePolls, leaseErrors int64) {
	for _, wk := range f.workers {
		c := wk.Counters()
		idlePolls += c.IdlePolls
		leaseErrors += c.LeaseErrors
	}
	return idlePolls, leaseErrors
}

func (f *fleet) cacheHitRate() float64 {
	hits, misses := f.co.Cache().Stats()
	return ratio(float64(hits), float64(hits+misses))
}

// ledgerKB is the mean size of the per-job ledger files, in KB.
func (f *fleet) ledgerKB() (float64, error) {
	files, err := filepath.Glob(filepath.Join(f.ledger, "*.jsonl"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, name := range files {
		info, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return ratio(float64(n)/1e3, float64(len(files))), nil
}

// routeNames maps the coordinator's route patterns to the names the
// service metrics use; routes not listed are recorded as "other".
var routeNames = map[string]string{
	"POST " + service.API + "/jobs":              "submit",
	"POST " + service.API + "/lease":             "lease",
	"POST " + service.API + "/jobs/{id}/results": "unit_results",
	"GET " + service.API + "/jobs/{id}/spec":     "spec",
	"GET " + service.API + "/jobs/{id}":          "status",
	"GET " + service.API + "/jobs/{id}/results":  "results",
}

// serviceRoutes are the reported routes; p90Routes those that reach the 100
// calls a 90th percentile needs in a traced pass.
var (
	serviceRoutes = []string{"submit", "lease", "unit_results", "spec", "status", "results"}
	p90Routes     = map[string]bool{"lease": true, "unit_results": true}
)

// call is one request the coordinator served while the recorder was on.
type call struct {
	route               string
	status              int
	start, end          time.Time
	reqBytes, respBytes int64
}

// recorder is the handler middleware the benchmark wraps around the
// coordinator: while on, it records every request's route, status, latency
// and body sizes.  Off, it costs one atomic load per request.
type recorder struct {
	next  http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	calls []call
}

func (rc *recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !rc.on.Load() {
		rc.next.ServeHTTP(w, r)
		return
	}
	body := &countingReader{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	rc.next.ServeHTTP(cw, r) // the coordinator's mux sets r.Pattern
	c := call{route: routeNames[r.Pattern], status: cw.status, start: start, end: time.Now(), reqBytes: body.n, respBytes: cw.n}
	if c.route == "" {
		c.route = "other"
	}
	rc.mu.Lock()
	rc.calls = append(rc.calls, c)
	rc.mu.Unlock()
}

func (rc *recorder) enable() {
	rc.mu.Lock()
	rc.calls = nil
	rc.mu.Unlock()
	rc.on.Store(true)
}

// disable turns recording off and returns the calls recorded since enable.
func (rc *recorder) disable() []call {
	rc.on.Store(false)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	calls := rc.calls
	rc.calls = nil
	return calls
}

type countingReader struct {
	io.ReadCloser
	n int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the server's writer.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// serviceTrace accumulates the traced service jobs.
type serviceTrace struct {
	jobs   [][]call
	remote []float64 // job wall seconds
	inproc []float64 // core run plus compaction of the same job, seconds

	// Worker counter increments while the traced jobs ran.
	idlePolls, leaseErrors int64
}

// metrics derives the service metrics of the traced pass; with no traced
// job (the in-process workloads) every one of them is 0.
func (s *serviceTrace) metrics(f *fleet) (map[string]float64, error) {
	m := map[string]float64{}
	for _, lm := range layerMetrics {
		if strings.HasPrefix(lm.name, "service.") {
			m[lm.name] = 0
		}
	}
	jobs := float64(len(s.jobs))
	if f == nil || jobs == 0 {
		return m, nil
	}
	lat := map[string][]float64{}
	req, resp := map[string]int64{}, map[string]int64{}
	var pickups, lags []float64
	for _, calls := range s.jobs {
		for _, c := range calls {
			lat[c.route] = append(lat[c.route], ms(c.end.Sub(c.start)))
			req[c.route] += c.reqBytes
			resp[c.route] += c.respBytes
		}
		if pickup, lag, ok := jobLatencies(calls); ok {
			pickups = append(pickups, ms(pickup))
			lags = append(lags, ms(lag))
		}
	}
	for _, r := range serviceRoutes {
		p := "service." + r + "."
		m[p+"calls"] = float64(len(lat[r])) / jobs
		if len(lat[r]) > 0 {
			m[p+"p50_ms"] = median(lat[r])
		}
		if p90Routes[r] && len(lat[r]) >= 100 {
			m[p+"p90_ms"] = quantiles(lat[r], 10)[8]
		}
		m[p+"req_kb"] = float64(req[r]) / 1e3 / jobs
		m[p+"resp_kb"] = float64(resp[r]) / 1e3 / jobs
	}
	if len(pickups) > 0 {
		m["service.lease_pickup_ms"] = median(pickups)
		m["service.notify_lag_ms"] = median(lags)
	}
	m["service.overhead_s"] = median(s.remote) - median(s.inproc)
	m["service.idle_polls"] = float64(s.idlePolls) / jobs
	m["service.lease_errors"] = float64(s.leaseErrors) / jobs
	m["service.cache_hitrate"] = f.cacheHitRate()
	ledger, err := f.ledgerKB()
	if err != nil {
		return nil, err
	}
	m["service.ledger_kb"] = ledger
	return m, nil
}

// jobLatencies reads one job's calls: the pickup runs from the submit
// response to the first granted lease, the notify lag from the last unit
// results post to the client's results request.  One job runs at a time, so
// every granted lease and post in the window belongs to the job.
func jobLatencies(calls []call) (pickup, lag time.Duration, ok bool) {
	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
	var submit, lease, lastPost, results *call
	for i := range calls {
		c := &calls[i]
		switch {
		case c.route == "submit" && submit == nil:
			submit = c
		case c.route == "lease" && c.status == http.StatusOK && submit != nil && lease == nil:
			lease = c
		case c.route == "unit_results" && results == nil:
			lastPost = c
		case c.route == "results" && results == nil:
			results = c
		}
	}
	if submit == nil || lease == nil || lastPost == nil || results == nil {
		return 0, 0, false
	}
	return lease.end.Sub(submit.end), results.start.Sub(lastPost.end), true
}
