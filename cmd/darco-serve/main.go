// Command darco-serve runs the multi-tenant simulation service — a
// long-running HTTP server that accepts jobs by workload reference,
// schedules them with per-tenant fair queuing over a bounded worker
// pool, streams per-job progress as Server-Sent Events, and persists
// every result in a content-addressed store so cache hits survive
// restarts.
//
// Server mode:
//
//	darco-serve -listen :8080 -store /var/lib/darco
//	darco-serve -listen :8080 -store ./results -workers 4 -queue 64
//	darco-serve -listen :8080 -store ./results -store-max-bytes 104857600
//	darco-serve -listen :8080 -job-ttl 1h          # registry TTL for completed jobs
//	darco-serve -listen :8080 -no-cosim            # fast base config
//
// SIGINT/SIGTERM drains gracefully: admission stops (new submissions
// get 503), queued jobs fail fast, and in-flight simulations get
// -drain to finish before their contexts are cancelled.
//
// Client mode (-server selects it; also available as the -server flag
// of darco, darco-suite and darco-figs):
//
//	darco-serve -server http://host:8080 -submit synthetic:470.lbm
//	darco-serve -server http://host:8080 -submit trace:run.trace.json -scale 0.5 -tenant ci
//	darco-serve -server http://host:8080 -health
//	darco-serve -server http://host:8080 -jobs-list
//	darco-serve -server http://host:8080 -cancel j-000001
//
// -submit enqueues one job, relays its event stream to stderr, and
// prints the terminal darco.Record JSON — the same interchange format
// cmd/darco -json emits and cmd/darco-figs -from consumes — to stdout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/darco"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	listen := flag.String("listen", ":8080", "server mode: listen address")
	storeDir := flag.String("store", "", "server mode: content-addressed result store directory (empty = in-memory only, cache dies with the process)")
	storeMax := flag.Int64("store-max-bytes", 0, "server mode: persistent-store size quota; least recently used entries are evicted past it (0 = unbounded)")
	jobTTL := flag.Duration("job-ttl", 0, "server mode: drop completed jobs from the registry after this long (0 = keep forever; stored results survive)")
	workers := flag.Int("workers", 0, "server mode: simulation worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "server mode: admission queue bound, submissions beyond it get 429 (0 = default, <0 = unbounded)")
	drain := flag.Duration("drain", 30*time.Second, "server mode: grace period for in-flight jobs on SIGINT/SIGTERM")
	noCosim := flag.Bool("no-cosim", false, "server mode: disable emulator co-simulation in the base config")

	server := flag.String("server", "", "client mode: darco-serve base URL (selects client mode)")
	submit := flag.String("submit", "", "client mode: workload reference to submit (<source>:<name>)")
	scale := flag.Float64("scale", 1.0, "client mode: workload dynamic-size multiplier")
	tenant := flag.String("tenant", "", "client mode: fair-queuing tenant of the submission")
	modeFlag := flag.String("mode", "", "client mode: timing mode override (shared, app-only, tol-only, split)")
	health := flag.Bool("health", false, "client mode: print server health and exit")
	cancelID := flag.String("cancel", "", "client mode: cancel this queued or running job and exit")
	jobsList := flag.Bool("jobs-list", false, "client mode: list server jobs and exit")
	storeList := flag.Bool("store-list", false, "client mode: list the server's persistent store and exit")
	timeout := flag.Duration("timeout", 0, "client mode: overall deadline (0 = none)")
	flag.Parse()

	if *server != "" {
		os.Exit(clientMain(*server, *submit, *cancelID, *scale, *tenant, *modeFlag, *health, *jobsList, *storeList, *timeout))
	}
	if *submit != "" || *cancelID != "" || *health || *jobsList || *storeList {
		fmt.Fprintln(os.Stderr, "darco-serve: client flags need -server <url>")
		os.Exit(2)
	}
	os.Exit(serverMain(*listen, *storeDir, *storeMax, *workers, *queue, *drain, *jobTTL, *noCosim))
}

func serverMain(listen, storeDir string, storeMax int64, workers, queue int, drain, jobTTL time.Duration, noCosim bool) int {
	cfg := serve.Config{Workers: workers, QueueLimit: queue, Log: os.Stderr, JobTTL: jobTTL, StoreMaxBytes: storeMax}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "darco-serve:", err)
			return 1
		}
		cfg.Store = st
		fmt.Fprintf(os.Stderr, "darco-serve: store %s\n", storeDir)
		// Apply the quota to whatever the directory already holds, so a
		// restart with a tighter bound converges immediately.
		if storeMax > 0 {
			if removed, freed, err := st.EvictToSize(storeMax); err != nil {
				fmt.Fprintln(os.Stderr, "darco-serve: store quota:", err)
			} else if removed > 0 {
				fmt.Fprintf(os.Stderr, "darco-serve: store quota: evicted %d entries (%d bytes)\n", removed, freed)
			}
		}
	}
	if noCosim {
		base := darco.DefaultConfig()
		base.TOL.Cosim = false
		cfg.Base = &base
	}
	srv := serve.NewServer(cfg)
	hs := &http.Server{Addr: listen, Handler: srv}

	// Graceful shutdown: stop accepting connections, then drain the
	// simulation pipeline with the -drain grace period.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "darco-serve: listening on %s\n", listen)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "darco-serve:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Fprintf(os.Stderr, "darco-serve: draining (up to %s)...\n", drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	code := 0
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "darco-serve: drain:", err)
		code = 1
	}
	_ = hs.Shutdown(dctx)
	return code
}

func clientMain(base, submit, cancelID string, scale float64, tenant, mode string, health, jobsList, storeList bool, timeout time.Duration) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	c := serve.NewClient(base)
	c.Tenant = tenant

	dump := func(v any) int {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fmt.Fprintln(os.Stderr, "darco-serve:", err)
			return 1
		}
		return 0
	}
	switch {
	case health:
		h, err := c.Health(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "darco-serve:", err)
			return 1
		}
		return dump(h)
	case jobsList:
		js, err := c.Jobs(ctx, tenant)
		if err != nil {
			fmt.Fprintln(os.Stderr, "darco-serve:", err)
			return 1
		}
		return dump(js)
	case storeList:
		entries, err := c.StoreList(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "darco-serve:", err)
			return 1
		}
		return dump(entries)
	case cancelID != "":
		st, err := c.Cancel(ctx, cancelID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "darco-serve:", err)
			return 1
		}
		return dump(st)
	case submit == "":
		fmt.Fprintln(os.Stderr, "darco-serve: client mode needs -submit <ref> (or -cancel / -health / -jobs-list / -store-list)")
		return 2
	}

	resp, err := c.Submit(ctx, serve.SubmitRequest{Workload: submit, Scale: scale, Knobs: darco.Knobs{Mode: mode}})
	if err != nil {
		if serve.IsOverloaded(err) {
			fmt.Fprintln(os.Stderr, "darco-serve: server overloaded, retry later:", err)
		} else {
			fmt.Fprintln(os.Stderr, "darco-serve:", err)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "submitted %s as %s (key %s)\n", submit, resp.ID, resp.Key)
	if err := c.Events(ctx, resp.ID, func(ev serve.WireEvent) {
		if ev.Error != "" {
			fmt.Fprintf(os.Stderr, "event %-8s %s: %s\n", ev.Kind, ev.Job, ev.Error)
		} else if ev.Cycles != 0 {
			fmt.Fprintf(os.Stderr, "event %-8s %s (%d cycles)\n", ev.Kind, ev.Job, ev.Cycles)
		} else {
			fmt.Fprintf(os.Stderr, "event %-8s %s\n", ev.Kind, ev.Job)
		}
	}); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "darco-serve: event stream:", err)
	}
	raw, err := c.ResultRaw(ctx, resp.ID, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "darco-serve:", err)
		return 1
	}
	os.Stdout.Write(raw)
	fmt.Println()
	var rec darco.Record
	if json.Unmarshal(raw, &rec) == nil && rec.Error != "" {
		fmt.Fprintln(os.Stderr, "darco-serve: job failed:", rec.Error)
		return 1
	}
	return 0
}
