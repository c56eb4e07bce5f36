package atpg

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/pattern"
	"repro/internal/service"
)

// cancelPropagationTimeout bounds the best-effort DELETE that propagates a
// local cancellation to the coordinator.  The job context is already dead at
// that point, so the request runs on its own clock; if the coordinator does
// not answer within this window the job is left to the coordinator's own
// lease expiry and the caller still observes ErrCanceled.
const cancelPropagationTimeout = 5 * time.Second

// cancelTimeout is cancelPropagationTimeout as a variable so tests can
// shrink the window when exercising the DELETE-itself-times-out branch.
var cancelTimeout = cancelPropagationTimeout

// propagateCancel tells the coordinator to cancel jobID on a fresh,
// self-deadlined context.  Errors are deliberately dropped: cancellation is
// best-effort and the caller's outcome (ErrCanceled) is already decided.
func propagateCancel(cl *service.Client, jobID string) {
	cctx, cancel := context.WithTimeout(context.Background(), cancelTimeout)
	defer cancel()
	_, _ = cl.Cancel(cctx, jobID)
}

// WithRemote makes the engine run on an ATPG service coordinator instead of
// in-process: Run submits the circuit (content-addressed, so repeat
// submissions of the same design skip the upload and the parse), the fault
// list and the engine's options as a job, waits for the coordinator's
// distributed workers to finish it, and imports the results — statuses are
// bit-identical to a local run with the same options whenever interleaved
// simulation is off, and the merged test set lands in [Engine.Tests] exactly
// as a local run's would.  Stream consumes the job's settle-event feed;
// breaking out cancels the job on the coordinator.
//
// addr is the coordinator's base URL, e.g. "http://127.0.0.1:9090".
// [WithWorkers] is ignored remotely (parallelism is the worker fleet's), and
// [Engine.Workers] reads 0.
// [WithProgress] works — it is fed from the event stream.  After a run,
// Stats().Sched carries the job's lease counters (units, leases, requeues
// and duplicates).
func WithRemote(addr string) Option {
	return func(c *engineConfig) error {
		if addr == "" {
			return fmt.Errorf("atpg: empty remote coordinator address")
		}
		c.remote = addr
		return nil
	}
}

// submitRemote ships the engine's circuit, options and faults as a job.
func (e *Engine) submitRemote(ctx context.Context, cl *service.Client, faults []Fault) (service.SubmitResponse, error) {
	var buf bytes.Buffer
	if err := e.circuit.WriteBench(&buf); err != nil {
		return service.SubmitResponse{}, err
	}
	return cl.SubmitBench(ctx, e.circuit.Name(), buf.String(),
		service.WireOptions(e.gen.Options()), service.EncodeFaults(e.circuit.c, faults))
}

// importRemote folds a finished job's outcome into the engine: results are
// matched to the submitted faults by index, rebased onto the local test set,
// and the coordinator's statistics are accumulated, so Tests, Stats and
// Coverage read exactly as after a local run.  The results must hold one
// row per submitted fault, in fault order (see ResultColumns.DecodeFinal).
func (e *Engine) importRemote(faults []Fault, resp service.ResultsResponse) ([]Result, error) {
	results, err := resp.Results.DecodeFinal(faults)
	if err != nil {
		return nil, fmt.Errorf("atpg: remote results: %w", err)
	}
	set, err := pattern.Read(strings.NewReader(resp.Tests))
	if err != nil {
		return nil, fmt.Errorf("atpg: remote test set: %w", err)
	}
	inputs := len(e.circuit.c.Inputs())
	for i, p := range set.Pairs {
		if p.Len() != inputs {
			return nil, fmt.Errorf("atpg: remote test set: pattern %d has %d values for %d inputs", i, p.Len(), inputs)
		}
	}
	return e.gen.ImportRemoteRun(results, set, resp.Stats), nil
}

// runRemote is Run against a coordinator.  Cancelling ctx cancels the job
// remotely and reports ErrCanceled, mirroring the local contract.
func (e *Engine) runRemote(ctx context.Context, faults []Fault) ([]Result, error) {
	cl := service.NewClient(e.remote)
	sub, err := e.submitRemote(ctx, cl, faults)
	if err != nil {
		return nil, err
	}
	var jobErr error
	if e.progress != nil {
		jobErr = e.followEvents(ctx, cl, sub.JobID, faults, func(Result) bool { return true })
	} else {
		_, jobErr = cl.Wait(ctx, sub.JobID)
	}
	if jobErr != nil {
		if ctx.Err() != nil {
			// Propagate the cancellation to the coordinator; the job context
			// is gone, so propagateCancel runs the DELETE on its own clock.
			propagateCancel(cl, sub.JobID)
			return nil, fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
		}
		return nil, jobErr
	}
	resp, err := cl.Results(context.WithoutCancel(ctx), sub.JobID)
	if err != nil {
		return nil, err
	}
	results, err := e.importRemote(faults, resp)
	if err != nil {
		return nil, err
	}
	if resp.State == "canceled" {
		return results, fmt.Errorf("%w after %d of %d faults: job canceled on the coordinator",
			ErrCanceled, settledCount(results), len(faults))
	}
	return results, nil
}

// followEvents feeds the job's settle events, decoded against the submitted
// faults, to the engine's progress callback and to yield.  It returns when
// the feed reports done, yield stops it, or ctx ends.  The feed reconnects
// through transient failures (see service.Client.Follow), so no event is
// delivered twice and none is lost.  A page that does not decode against
// the faults delivers none of its events and ends the feed with an error.
func (e *Engine) followEvents(ctx context.Context, cl *service.Client, jobID string, faults []Fault, yield func(Result) bool) error {
	for page, err := range cl.Follow(ctx, jobID) {
		if err != nil {
			return err
		}
		results, err := page.DecodePage(faults)
		if err != nil {
			return fmt.Errorf("atpg: remote event: %w", err)
		}
		for _, r := range results {
			if e.progress != nil {
				e.progress(r)
			}
			if !yield(r) {
				return nil
			}
		}
	}
	return nil
}

// streamRemote is Stream against a coordinator: results arrive from the
// settle-event feed (PatternIndex is -1 — merge indices exist only after
// the run; see Stream's documentation of the parallel caveat).  Breaking
// out of the stream cancels the job.  After a complete stream the job's
// merged outcome is imported, so Tests and Coverage are final.
func (e *Engine) streamRemote(ctx context.Context, faults []Fault) func(yield func(Result) bool) {
	return func(yield func(Result) bool) {
		cl := service.NewClient(e.remote)
		sub, err := e.submitRemote(ctx, cl, faults)
		if err != nil {
			return
		}
		stopped := false
		err = e.followEvents(ctx, cl, sub.JobID, faults, func(r Result) bool {
			if !yield(r) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil || stopped {
			propagateCancel(cl, sub.JobID)
			return
		}
		if resp, err := cl.Results(context.WithoutCancel(ctx), sub.JobID); err == nil {
			_, _ = e.importRemote(faults, resp)
		}
	}
}
