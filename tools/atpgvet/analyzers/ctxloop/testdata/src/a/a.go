// Package a is the ctxloop fixture: consume loops that claim scheduler
// units with and without a per-iteration context check, the annotation
// form, and the suppression cases.
package a

import (
	"context"

	"repro/tools/atpgvet/analyzers/ctxloop/testdata/src/sched"
)

func consumeBad(sc *sched.Scheduler) {
	for { // want `without checking ctx.Err`
		u, ok := sc.Next()
		if !ok {
			return
		}
		_ = u
	}
}

func consumeGood(ctx context.Context, sc *sched.Scheduler) {
	for ctx.Err() == nil {
		u, ok := sc.Next()
		if !ok {
			return
		}
		_ = u
	}
}

func consumeSelect(ctx context.Context, sc *sched.Scheduler) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		u, ok := sc.Next()
		if !ok {
			return
		}
		_ = u
	}
}

// nestedOuterClean: the outer loop claims nothing itself; the inner loop
// claims and checks, so each loop is judged on its own statements.
func nestedOuterClean(ctx context.Context, sc *sched.Scheduler) {
	for i := 0; i < 4; i++ {
		for ctx.Err() == nil {
			u, ok := sc.Next()
			if !ok {
				break
			}
			_ = u
		}
	}
}

// annotatedLoop opts every loop of the function into the check.
//
//atpgvet:ctxloop
func annotatedLoop(items []int) int {
	total := 0
	for _, it := range items { // want `without checking ctx.Err`
		total += it
	}
	return total
}

func suppressedDrain(sc *sched.Scheduler) {
	//atpgvet:ignore ctxloop -- fixture: bounded drain, terminates without cancellation
	for {
		if _, ok := sc.Next(); !ok {
			return
		}
	}
}

func reasonlessDrain(sc *sched.Scheduler) {
	//atpgvet:ignore ctxloop // want `needs a reason`
	for { // want `without checking ctx.Err`
		if _, ok := sc.Next(); !ok {
			return
		}
	}
}
