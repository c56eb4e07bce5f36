package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/atpg"
)

// workers is the worker count of every workload: in-process engines shard
// across two workers, and the service fleet runs two.
const workers = 2

// populationSeed fixes each workload's fault population.  The -seed flag
// draws the order the population runs in, a fresh order every rep, rather
// than a new population: the order changes FPTPG grouping, the shard split,
// the simulation drop order and so the test set, while every fault's class
// stays put.  A fresh sample per seed moved the c7552 pattern count by up to
// 9 % and the efficiency by up to 3 % between seeds, more than a bound can
// absorb.
const populationSeed = 1995

// workload is one input set of the benchmark: a circuit, a fault population
// and an engine configuration, driven through the public facade.
type workload struct {
	name       string
	circuit    string
	faults     int // target faults
	toyFaults  int // target faults of the smoke test
	mode       atpg.Mode
	width      int
	simOff     bool
	compaction atpg.CompactionLevel
	hardTail   bool // targets are the hardest half of a sample twice as large
	remote     bool // Engine.Run goes through an in-process service fleet
	perRound   int  // timed reps per round when workloads interleave
	tracedReps int  // minimum reps of the traced pass
}

// workloads are the benchmark's four workloads; README.md gives the reason
// for each.
var workloads = []*workload{
	{name: "bulk", circuit: "c7552", faults: 1024, toyFaults: 64, mode: atpg.Robust, width: 64,
		compaction: atpg.CompactFull, perRound: 1, tracedReps: 3},
	{name: "hard-tail", circuit: "c7552", faults: 512, toyFaults: 64, mode: atpg.Robust, width: 128,
		compaction: atpg.CompactNone, hardTail: true, perRound: 2, tracedReps: 3},
	{name: "large-nonrobust", circuit: "s38584", faults: 1024, toyFaults: 64, mode: atpg.Nonrobust, width: 64,
		compaction: atpg.CompactFull, perRound: 1, tracedReps: 3},
	{name: "service-loopback", circuit: "c880", faults: 3000, toyFaults: 128, mode: atpg.Robust, width: 64,
		simOff: true, compaction: atpg.CompactReverse, remote: true, perRound: 3, tracedReps: 10},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// endToEnd lists the end-to-end metrics with their units; BENCHMARK.json
// lists the same names with each metric's direction and bound.  pass_frac
// is 1 − fail_frac, the share of runs that passed every check: an
// end-to-end metric must never read 0, and fail_frac reads 0 on every
// healthy run.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"efficiency_pct", "%"},
	{"coverage_pct", "%"},
	{"patterns", "count"},
	{"pass_frac", "ratio"},
}

// options are the engine options of the workload, with remote set for the
// service workload.  Only options the facade keeps for good appear here.
func (w *workload) options(remote string) []atpg.Option {
	opts := []atpg.Option{
		atpg.WithWorkers(workers),
		atpg.WithMode(w.mode),
		atpg.WithWordWidth(w.width),
		atpg.WithCompaction(w.compaction),
	}
	if w.simOff {
		opts = append(opts, atpg.WithInterleavedSim(0))
	}
	if remote != "" {
		opts = append(opts, atpg.WithRemote(remote))
	}
	return opts
}

// instance is a workload set up for running: its circuit, its target
// population, the seeded source of each rep's fault order, and for the
// service workload a running fleet.
type instance struct {
	w          *workload
	c          *atpg.Circuit
	population []atpg.Fault
	sampled    int // size of the sample the population comes from
	orders     *rand.Rand
	opts       []atpg.Option
	fleet      *fleet
	classes    []byte // coverage class of each population fault, from the first run
}

// order is one rep's input: the population in a seed-drawn order, with
// faults[i] = population[perm[i]].
type order struct {
	faults []atpg.Fault
	perm   []int
}

// nextOrder draws the next rep's fault order.  Every rep runs its own order,
// so a run's medians average over many orders instead of resting on one.
func (in *instance) nextOrder() order {
	perm := in.orders.Perm(len(in.population))
	faults := make([]atpg.Fault, len(perm))
	for i, p := range perm {
		faults[i] = in.population[p]
	}
	return order{faults: faults, perm: perm}
}

// setup builds one instance; it is the work setup_s times.
func (w *workload) setup(size int, seed int64, dir string) (*instance, error) {
	c, err := atpg.Builtin(w.circuit)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, c: c, sampled: size, orders: rand.New(rand.NewSource(seed))}
	if w.hardTail {
		in.sampled = 2 * size
		if in.population, err = hardest(w.circuit, in.sampled, size, w.mode); err != nil {
			return nil, err
		}
	} else {
		in.population = atpg.SampleFaults(c, size, populationSeed)
	}
	remote := ""
	if w.remote {
		if in.fleet, err = startFleet(dir); err != nil {
			return nil, err
		}
		remote = in.fleet.url
	}
	in.opts = w.options(remote)
	return in, nil
}

// setupSample is the least setup time one setup_s sample averages over.
// Single setups take 2–30 ms, and within one run their wall times fell into
// two groups about 1.5× apart, a spread no bound could hold.
const setupSample = 100 * time.Millisecond

// setupTimed sets the workload up back to back until the timed setups add
// up to setupSample, and returns the last instance with the mean wall time
// of a setup in seconds; closing the others is not timed.  A first,
// discarded setup fills the caches with the workload's code and data, so
// the sample measures the setup's own work rather than the misses left by
// whatever ran before: in interleaved rounds that is another workload.
func (w *workload) setupTimed(size int, seed int64, dir string) (*instance, float64, error) {
	warm, err := w.setup(size, seed, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	warm.close()
	runtime.GC()
	var in *instance
	var total time.Duration
	n := 0
	for total < setupSample {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		in, err = w.setup(size, seed, dir)
		total += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		n++
	}
	return in, total.Seconds() / float64(n), nil
}

func (in *instance) close() {
	if in.fleet != nil {
		in.fleet.close()
	}
}

func (in *instance) robust() bool { return in.w.mode == atpg.Robust }

// reference is the in-process run of a service job: the remote job must
// return the same statuses and the same test set bytes, which the service
// guarantees with the interleaved simulation off.
type reference struct {
	statuses []atpg.Status
	tests    []byte
}

func (in *instance) reference(ctx context.Context, o order) (*reference, error) {
	e, err := atpg.New(in.c, in.w.options("")...)
	if err != nil {
		return nil, err
	}
	results, err := e.Run(ctx, o.faults)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if err := in.check(e, results, o, nil); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	ref := &reference{statuses: make([]atpg.Status, len(results))}
	for i, r := range results {
		ref.statuses[i] = r.Status
	}
	var buf bytes.Buffer
	if err := e.Tests().Write(&buf); err != nil {
		return nil, err
	}
	ref.tests = buf.Bytes()
	return ref, nil
}

// outcome is what one untraced rep measured.
type outcome struct {
	start      time.Time
	wall, cpu  time.Duration
	allocBytes uint64
	cov        atpg.Coverage
}

func (o outcome) metrics() map[string]float64 {
	return map[string]float64{
		"run_s":          o.wall.Seconds(),
		"cpu_s":          o.cpu.Seconds(),
		"alloc_mb":       float64(o.allocBytes) / 1e6,
		"efficiency_pct": o.cov.Efficiency(),
		"coverage_pct":   100 * o.cov.Fraction(),
		"patterns":       float64(o.cov.Patterns),
	}
}

// rep runs the workload once, in the next fault order, through Engine.Run
// and checks the outputs.  The service's workers start before the untimed
// reference run, so their idle polls are out of step with the timed job's
// submit as they are in a fleet that runs on.
func (in *instance) rep(ctx context.Context) (outcome, error) {
	o := in.nextOrder()
	var ref *reference
	if in.fleet != nil {
		in.fleet.resume()
		defer in.fleet.pause()
		var err error
		if ref, err = in.reference(ctx, o); err != nil {
			return outcome{}, err
		}
	}
	return in.timed(ctx, o, ref)
}

// timed is the measured part of a rep: one Engine.Run, then the checks.
func (in *instance) timed(ctx context.Context, o order, ref *reference) (outcome, error) {
	e, err := atpg.New(in.c, in.opts...)
	if err != nil {
		return outcome{}, fmt.Errorf("engine: %w", err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	results, err := e.Run(ctx, o.faults)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return outcome{}, fmt.Errorf("run: %w", err)
	}
	out := outcome{start: start, wall: wall, cpu: cpu, allocBytes: m1.TotalAlloc - m0.TotalAlloc, cov: e.Coverage()}
	return out, in.check(e, results, o, ref)
}

// check applies the output checks to one run, and with ref the reference
// check; the error names the check that failed.
func (in *instance) check(e *atpg.Engine, results []atpg.Result, o order, ref *reference) error {
	if err := in.checkResults(results, o); err != nil {
		return err
	}
	if _, err := checkSimulation(in.c, e.Tests().Pairs, o.faults, results, in.robust(), e.Coverage().Detected); err != nil {
		return err
	}
	if ref == nil {
		return nil
	}
	for i, r := range results {
		if r.Status != ref.statuses[i] {
			return fmt.Errorf("reference check: fault %d is %v remotely, %v in process", i, r.Status, ref.statuses[i])
		}
	}
	var buf bytes.Buffer
	if err := e.Tests().Write(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), ref.tests) {
		return fmt.Errorf("reference check: the remote test set (%d bytes) differs from the in-process one (%d bytes)",
			buf.Len(), len(ref.tests))
	}
	return nil
}

// checkResults checks that every target fault got a final result, and that
// each fault's coverage class — detected, redundant or aborted — is the one
// the instance's first run gave it.  The deterministic merge promises equal
// classes across runs of one input with the simulation on; that they hold
// across fault orders too is measured, and the check keeps it so.
func (in *instance) checkResults(results []atpg.Result, o order) error {
	if len(results) != len(o.faults) {
		return fmt.Errorf("results check: %d results for %d faults", len(results), len(o.faults))
	}
	classes := make([]byte, len(results))
	for i, r := range results {
		if r.Status == atpg.Pending {
			return fmt.Errorf("results check: fault %d is pending", i)
		}
		if r.Err != nil {
			return fmt.Errorf("results check: fault %d: %w", i, r.Err)
		}
		classes[o.perm[i]] = class(r.Status)
	}
	if in.classes == nil {
		in.classes = classes
		return nil
	}
	for p := range classes {
		if classes[p] != in.classes[p] {
			return fmt.Errorf("digest check: fault %s is %c, the first run made it %c",
				in.c.Describe(in.population[p]), classes[p], in.classes[p])
		}
	}
	return nil
}

// class is a fault's coverage class: detected, redundant or aborted.
func class(s atpg.Status) byte {
	switch {
	case s.Detected():
		return 'd'
	case s == atpg.Redundant:
		return 'r'
	}
	return 'a'
}

// checkSimulation re-simulates the test set over the targets.  The set must
// detect every fault the results mark detected, and the run's coverage must
// count detected of them.  The set may detect more: aborted faults, which
// nothing drops when the interleaved simulation is off, and — on the c880
// service job — a few faults the engine proved redundant, which the check
// counts and returns instead of failing the run.
func checkSimulation(c *atpg.Circuit, pairs []atpg.TestPair, faults []atpg.Fault, results []atpg.Result, robust bool, detected int) (redundantDetected int, err error) {
	sim, err := atpg.Simulate(c, pairs, faults, robust)
	if err != nil {
		return 0, fmt.Errorf("simulate check: %w", err)
	}
	n := 0
	for i, r := range results {
		switch {
		case r.Status.Detected() && !sim.Detected[i]:
			return 0, fmt.Errorf("simulate check: fault %d is %v, but the test set misses it", i, r.Status)
		case r.Status.Detected():
			n++
		case r.Status == atpg.Redundant && sim.Detected[i]:
			redundantDetected++
		}
	}
	if n != detected {
		return 0, fmt.Errorf("simulate check: the results mark %d faults detected, the coverage counts %d", n, detected)
	}
	return redundantDetected, nil
}

// tracedRep is one rep of the traced pass; it returns the layer metrics.
// The service workload first runs the rep's order as two jobs, one with the
// route recorder on and one without, and its trace.overhead_pct compares
// them; every workload then runs the layer probes on the same order, with
// the workers paused.  In-process, the probes' core run and compaction run
// twice, with and without spans, for trace.overhead_pct.
func (in *instance) tracedRep(ctx context.Context, tr *tracer, svc *serviceTrace) (map[string]float64, error) {
	defer tr.start("rep", "")()
	o := in.nextOrder()
	var job, untraced outcome
	if in.fleet != nil {
		var err error
		if job, untraced, err = in.tracedJobs(ctx, tr, svc, o); err != nil {
			return nil, err
		}
	}
	m, split, err := probeLayers(ctx, tr, in, o, in.fleet == nil)
	if err != nil {
		return nil, err
	}
	if in.fleet != nil {
		svc.remote = append(svc.remote, job.wall.Seconds())
		svc.inproc = append(svc.inproc, split.Seconds())
		m["trace.overhead_pct"] = 100 * (job.wall.Seconds()/untraced.wall.Seconds() - 1)
	}
	return m, nil
}

// tracedJobs runs one order as two service jobs, the recorded one first on
// even reps and second on odd ones, and returns both outcomes.
func (in *instance) tracedJobs(ctx context.Context, tr *tracer, svc *serviceTrace, o order) (traced, untraced outcome, err error) {
	in.fleet.resume()
	defer in.fleet.pause()
	ref, err := in.reference(ctx, o)
	if err != nil {
		return traced, untraced, err
	}
	for i := range 2 {
		if i != tr.rep%2 {
			if untraced, err = in.timed(ctx, o, ref); err != nil {
				return traced, untraced, fmt.Errorf("untraced twin: %w", err)
			}
			continue
		}
		idle0, errs0 := in.fleet.counters()
		in.fleet.rec.enable()
		traced, err = in.timed(ctx, o, ref)
		calls := in.fleet.rec.disable()
		idle1, errs1 := in.fleet.counters()
		if err != nil {
			return traced, untraced, err
		}
		tr.add("service.job", "rep", traced.start, traced.start.Add(traced.wall))
		for _, c := range calls {
			tr.add("service."+c.route, "service.job", c.start, c.end)
		}
		svc.jobs = append(svc.jobs, calls)
		svc.idlePolls += idle1 - idle0
		svc.leaseErrors += errs1 - errs0
	}
	return traced, untraced, nil
}

// config selects what one invocation runs.
type config struct {
	workloads []*workload
	seed      int64
	rounds    int     // interleaved rounds of timed reps when seconds is 0
	seconds   float64 // time budget of the timed reps, and of the traced pass
	untraced  bool    // run the timed reps (the end-to-end metrics)
	traced    bool    // run the traced pass (the per-layer metrics)
	toy       bool    // smoke-test sizes, one traced rep
	dir       string
}

// workloadResult is everything one invocation measured on one workload.
type workloadResult struct {
	Name       string             `json:"name"`
	Faults     int                `json:"faults"`
	EndToEnd   map[string]summary `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	SelfMS     map[string]float64 `json:"self_ms_per_rep,omitempty"`
	TracedReps int                `json:"traced_reps,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`

	setups  []float64
	samples map[string][]float64
}

// record counts one run; a run that passed its checks contributes its
// end-to-end metrics when keep is set (not for warm-ups and traced reps).
func (r *workloadResult) record(o outcome, err error, keep bool) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, err.Error())
		return
	}
	if keep {
		for k, v := range o.metrics() {
			r.samples[k] = append(r.samples[k], v)
		}
	}
}

// budget reports whether another round or traced rep is due: n of them
// without a time budget, otherwise until the budget is spent (but at least
// one, or n for the traced pass, which needs a few reps for its medians).
func (cfg config) budget(done, n int, start time.Time) bool {
	if cfg.seconds <= 0 {
		return done < n
	}
	return done < n || time.Since(start).Seconds() < cfg.seconds
}

// runBench sets every workload up, runs one discarded warm-up rep each, then
// the timed reps in interleaved rounds — so host drift lands on every
// workload alike — and finally the traced pass, workload by workload.
func runBench(ctx context.Context, cfg config, log io.Writer) ([]*workloadResult, error) {
	ins := make([]*instance, 0, len(cfg.workloads))
	defer func() {
		for _, in := range ins {
			in.close()
		}
	}()
	res := make([]*workloadResult, len(cfg.workloads))
	size := func(w *workload) int {
		if cfg.toy {
			return w.toyFaults
		}
		return w.faults
	}
	for i, w := range cfg.workloads {
		in, setup, err := w.setupTimed(size(w), cfg.seed, cfg.dir)
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
		res[i] = &workloadResult{Name: w.name, Faults: len(in.population), setups: []float64{setup}, samples: map[string][]float64{}}
		o, err := in.rep(ctx)
		res[i].record(o, err, false)
		fmt.Fprintf(log, "%s: set up %d faults, warm-up rep %.3f s\n", w.name, len(in.population), o.wall.Seconds())
	}

	if cfg.untraced {
		minRounds := max(cfg.rounds, 1)
		if cfg.seconds > 0 {
			minRounds = 1
		}
		start := time.Now()
		for round := 0; cfg.budget(round, minRounds, start); round++ {
			for i, w := range cfg.workloads {
				for range w.perRound {
					// One more setup sample per rep, its instance discarded:
					// setup_s then covers the same stretch of host time as
					// the reps.  Host speed on a shared machine drifts by a
					// third within a minute, so samples taken back to back at
					// the start agreed within a run but not between runs.
					extra, setup, err := w.setupTimed(size(w), cfg.seed, cfg.dir)
					if err != nil {
						return nil, err
					}
					extra.close()
					res[i].setups = append(res[i].setups, setup)
					o, err := ins[i].rep(ctx)
					res[i].record(o, err, true)
				}
			}
		}
		fmt.Fprintf(log, "timed reps: %.1f s\n", time.Since(start).Seconds())
	}

	if cfg.traced {
		for i, w := range cfg.workloads {
			if err := tracedPass(ctx, cfg, ins[i], res[i]); err != nil {
				return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
			}
		}
	}

	for _, r := range res {
		r.EndToEnd = map[string]summary{}
		for _, m := range endToEnd {
			values := r.samples[m.name]
			switch m.name {
			case "setup_s":
				values = r.setups
			case "pass_frac":
				values = []float64{1 - ratio(float64(r.Failed), float64(r.Attempted))}
			}
			if len(values) > 0 {
				r.EndToEnd[m.name] = summarize(m.unit, values)
			}
		}
	}
	return res, nil
}

// tracedPass runs the traced reps of one workload and fills in its layer
// metrics.
func tracedPass(ctx context.Context, cfg config, in *instance, r *workloadResult) error {
	tr := newTracer(in.w.name)
	svc := &serviceTrace{}
	minReps := in.w.tracedReps
	if cfg.toy {
		minReps = 1
	}
	layers := map[string][]float64{}
	start := time.Now()
	for rep := 0; cfg.budget(rep, minReps, start); rep++ {
		tr.rep = rep
		m, err := in.tracedRep(ctx, tr, svc)
		r.record(outcome{}, err, false)
		if err != nil {
			continue
		}
		r.TracedReps++
		for k, v := range m {
			layers[k] = append(layers[k], v)
		}
	}
	if r.TracedReps == 0 {
		return errors.New("no traced rep passed its checks")
	}
	r.PerLayer = map[string]float64{}
	for k, v := range layers {
		r.PerLayer[k] = median(v)
	}
	sm, err := svc.metrics(in.fleet)
	if err != nil {
		return err
	}
	for k, v := range sm {
		r.PerLayer[k] = v
	}
	r.SelfMS = map[string]float64{}
	for name, d := range selfTimes(tr.spans) {
		r.SelfMS[name] = ms(d) / float64(r.TracedReps)
	}
	return tr.write(cfg.dir)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
