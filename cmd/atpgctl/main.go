// Command atpgctl submits ATPG jobs to an atpgd coordinator and waits for
// the distributed result.  Its flags mirror cmd/tip so a distributed run is
// launched with the same vocabulary as a local one, and its -out/-statuses
// files use the same formats, so the two are directly diffable:
//
//	tip     -circuit c432 -sim 0 -compact reverse -out local.tests  -statuses local.status
//	atpgctl -circuit c432 -sim 0 -compact reverse -out remote.tests -statuses remote.status
//	diff local.status remote.status && diff local.tests remote.tests
//
// With the interleaved simulation off (-sim 0) both diffs are empty by the
// service's determinism contract, for any worker fleet.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/service"
)

func main() {
	var (
		server      = flag.String("server", "http://127.0.0.1:9090", "coordinator base URL")
		circuitName = flag.String("circuit", "", "built-in circuit name (see cmd/circgen -list)")
		benchFile   = flag.String("bench", "", "path to an ISCAS .bench file")
		mode        = flag.String("mode", "robust", "test class: robust or nonrobust")
		numFaults   = flag.Int("faults", 256, "number of target faults (0 = all structural faults; beware of path explosion)")
		seed        = flag.Int64("seed", 1995, "seed for fault sampling")
		width       = flag.Int("width", 0, fmt.Sprintf("word width L (1..%d, 0 = default %d); widths above 64 use two-word planes", logic.MaxWordWidth, logic.WordWidth))
		backtracks  = flag.Int("backtracks", 64, "backtrack limit per fault (matches cmd/tip's default)")
		noFPTPG     = flag.Bool("no-fptpg", false, "disable fault-parallel generation")
		noAPTPG     = flag.Bool("no-aptpg", false, "disable alternative-parallel generation")
		compactStr  = flag.String("compact", "", "static test-set compaction: none, reverse or full")
		xfill       = flag.String("xfill", "", "don't-care fill for merged pairs: zero, one or random")
		xfillSeed   = flag.Int64("xfill-seed", 1995, "seed for -xfill random")
		sim         = flag.Int("sim", -1, "interleaved fault-simulation interval in patterns (0 = off, -1 = track the word width)")
		out         = flag.String("out", "", "write the merged test set to this file")
		statuses    = flag.String("statuses", "", "write one 'fault<TAB>status' line per target fault (input order) to this file")
		verbose     = flag.Bool("v", false, "stream one line per fault as it settles")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, benchTxt, err := loadCircuit(*circuitName, *benchFile)
	if err != nil {
		fail(err)
	}
	var faults []paths.Fault
	if *numFaults <= 0 {
		faults = paths.EnumerateFaults(c, 0)
	} else {
		faults = paths.SampleFaults(c, *numFaults, *seed)
	}
	opts := service.JobOptions{
		Mode:       *mode,
		WordWidth:  *width,
		Backtracks: *backtracks,
		NoFPTPG:    *noFPTPG,
		NoAPTPG:    *noAPTPG,
		Compact:    *compactStr,
		XFill:      *xfill,
		XFillSeed:  *xfillSeed,
	}
	if *sim >= 0 {
		opts.SimInterval = sim
	}

	cl := service.NewClient(*server)
	sub, err := cl.SubmitBench(ctx, c.Name, benchTxt, opts, service.EncodeFaults(c, faults))
	if err != nil {
		fail(err)
	}
	fmt.Printf("submitted %s: job %s, %d faults, cache hit %v\n",
		c.Name, sub.JobID, sub.Faults, sub.CacheHit)

	// On interrupt, cancel the job on the coordinator before exiting.
	go func() {
		<-ctx.Done()
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = cl.Cancel(cctx, sub.JobID)
	}()

	if *verbose {
		// One line per fault as it settles, in tip -v's format.  Events name
		// their fault by its index in the submitted list.
		for w, err := range cl.Follow(ctx, sub.JobID) {
			if err != nil {
				fail(err)
			}
			r, err := service.DecodeResult(faults, w)
			if err != nil {
				fail(err)
			}
			fmt.Printf("  %-60s %-12s %s\n", r.Fault.Describe(c), w.Status, w.Phase)
		}
	} else if _, err := cl.Wait(ctx, sub.JobID); err != nil {
		fail(err)
	}

	resp, err := cl.Results(context.Background(), sub.JobID)
	if err != nil {
		fail(err)
	}
	st, err := cl.Status(context.Background(), sub.JobID)
	if err != nil {
		fail(err)
	}
	if resp.State != "done" {
		fail(fmt.Errorf("job %s ended %s: %s", sub.JobID, resp.State, st.Error))
	}

	fmt.Printf("result: %s\n", resp.Stats)
	fmt.Printf("service: leases=%d requeues=%d duplicates=%d replayed=%d cachehit=%v\n",
		st.Leases, st.Requeues, st.Duplicates, st.Replayed, sub.CacheHit)

	if *out != "" {
		if err := os.WriteFile(*out, []byte(resp.Tests), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote test set to %s\n", *out)
	}
	if *statuses != "" {
		results, err := service.DecodeResults(faults, resp.Results)
		if err != nil {
			fail(err)
		}
		var sb strings.Builder
		for _, r := range results {
			fmt.Fprintf(&sb, "%s\t%s\n", r.Fault.Describe(c), r.Status)
		}
		if err := os.WriteFile(*statuses, []byte(sb.String()), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d fault statuses to %s\n", len(results), *statuses)
	}
}

// loadCircuit loads exactly one of a built-in profile or a .bench file and
// returns the circuit together with its canonical bench text (what the
// coordinator hashes and compiles).
func loadCircuit(name, file string) (*circuit.Circuit, string, error) {
	switch {
	case name != "" && file != "":
		return nil, "", fmt.Errorf("set only one of -circuit and -bench")
	case name != "":
		c, err := bench.Get(name)
		if err != nil {
			return nil, "", err
		}
		var sb strings.Builder
		if err := circuit.WriteBench(&sb, c); err != nil {
			return nil, "", err
		}
		return c, sb.String(), nil
	case file != "":
		text, err := os.ReadFile(file)
		if err != nil {
			return nil, "", err
		}
		c, err := circuit.ParseBench(file, strings.NewReader(string(text)))
		if err != nil {
			return nil, "", err
		}
		return c, string(text), nil
	}
	return nil, "", fmt.Errorf("set -circuit or -bench")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "atpgctl:", err)
	os.Exit(1)
}
