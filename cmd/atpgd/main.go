// Command atpgd is the ATPG service daemon.  It runs in one of two roles:
//
//	atpgd -role coordinator -listen :9090 -ledger /var/lib/atpgd
//	atpgd -role worker -coordinator http://127.0.0.1:9090 -id w1
//
// A coordinator accepts jobs over HTTP/JSON from the atpg package's
// WithRemote option, which tip -remote sets (see cmd/tip), compiles each
// submitted circuit once into a content-addressed cache, cuts the fault
// universe into leased work units and merges the workers' verified patterns
// deterministically.  With -ledger it journals every job to a JSON-lines
// file and resumes interrupted jobs on restart.
//
// A worker leases units from the coordinator — each lease request waits on
// the coordinator until a unit is leasable — runs them through the
// bit-parallel generator and streams results back.  Killing a worker is
// safe at any point: its outstanding leases expire and are requeued.
//
// Both roles shut down cleanly on SIGINT/SIGTERM.  A coordinator answers
// every waiting and every new request 503 shutting-down, so it exits at
// once even with workers attached, and with -ledger the next start resumes
// its jobs.  A worker prints its loop counters (leases, units, empty lease
// waits, lease errors) on the way out.
//
// Both roles accept -chaos, a comma-separated fault-injection spec (e.g.
// -chaos "seed=7,drop=0.1,sever=0.05,storm-after=200") for resilience
// testing: on a worker the faults hit its HTTP transport, on a coordinator
// they hit ledger appends and the lease clock.  See internal/chaos.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/service"
)

func main() {
	var (
		role = flag.String("role", "coordinator", "process role: coordinator or worker")

		// Coordinator flags.
		listen    = flag.String("listen", "127.0.0.1:9090", "coordinator listen address")
		ledger    = flag.String("ledger", "", "directory for per-job ledger files (empty = no persistence, jobs are not resumable)")
		leaseTTL  = flag.Duration("lease", 30*time.Second, "work unit lease time-to-live; expired leases are requeued")
		maxActive = flag.Int("max-active", 4, "jobs generating concurrently; further jobs queue")

		// Worker flags.
		coordinator = flag.String("coordinator", "http://127.0.0.1:9090", "coordinator base URL (worker role)")
		id          = flag.String("id", "", "worker ID; must be unique per fleet (default: host/pid derived)")

		// Shared.
		chaosSpec = flag.String("chaos", "", "fault-injection spec, e.g. seed=7,drop=0.1,sever=0.05,tear=0.1,storm-after=200 (empty = off)")
	)
	flag.Parse()

	var inj *chaos.Injector
	if *chaosSpec != "" {
		cfg, err := chaos.Parse(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atpgd:", err)
			os.Exit(2)
		}
		inj = chaos.New(cfg)
		fmt.Printf("atpgd: chaos injection armed: %s\n", *chaosSpec)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch *role {
	case "coordinator":
		err = runCoordinator(ctx, service.Config{
			LeaseTTL:  *leaseTTL,
			MaxActive: *maxActive,
			LedgerDir: *ledger,
			Chaos:     inj,
		}, *listen)
	case "worker":
		wid := *id
		if wid == "" {
			host, _ := os.Hostname()
			wid = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		fmt.Printf("atpgd: worker %s leasing from %s\n", wid, *coordinator)
		wk := service.NewWorker(service.WorkerConfig{
			Coordinator: *coordinator,
			ID:          wid,
			Transport:   inj.Transport(nil),
		})
		err = wk.Run(ctx)
		cnt := wk.Counters()
		fmt.Printf("atpgd: worker %s: %d leases, %d units, %d empty lease waits, %d lease errors\n",
			wid, cnt.Leases, cnt.Units, cnt.IdlePolls, cnt.LeaseErrors)
	default:
		err = fmt.Errorf("unknown role %q (want coordinator or worker)", *role)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "atpgd:", err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds the time a client may take to send a request's
// headers; the coordinator bounds each request body itself.  With no idle
// timeout set, it also closes a keep-alive connection idle that long, which
// clients redial.  There is no server-wide ReadTimeout: its deadline would
// stay on the connection while a long-poll is parked and cancel it.
const readHeaderTimeout = 10 * time.Second

// runCoordinator serves the coordinator until ctx is canceled, then shuts
// the HTTP server down and closes the coordinator — which, with a ledger,
// leaves running jobs resumable by the next start.  The coordinator's own
// shutdown starts with the server's, so waiting requests end at once
// instead of holding Shutdown up.
func runCoordinator(ctx context.Context, cfg service.Config, listen string) error {
	co, err := service.NewCoordinator(cfg)
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: listen, Handler: co, ReadHeaderTimeout: readHeaderTimeout}
	srv.RegisterOnShutdown(co.BeginShutdown)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if cfg.LedgerDir != "" {
		fmt.Printf("atpgd: coordinator on %s, ledger in %s\n", listen, cfg.LedgerDir)
	} else {
		fmt.Printf("atpgd: coordinator on %s (no ledger)\n", listen)
	}
	select {
	case err := <-errCh:
		co.Close()
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(sctx)
	co.Close()
	return nil
}
