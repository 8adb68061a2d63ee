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
	"fmt"
	"io"
	"net"
	"net/http"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/darco"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() { cli.Main(run, syscall.SIGTERM) }

// run is the command behind cli.Main's testable seam; cancelling ctx
// is the server's drain signal.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("darco-serve", stdout, stderr)
	cfg := serve.Config{Log: stderr}
	listen := cmd.String("listen", ":8080", "server mode: listen address")
	storeDir := cmd.String("store", "", "server mode: content-addressed result store directory (empty = in-memory only, cache dies with the process)")
	cmd.Int64Var(&cfg.StoreMaxBytes, "store-max-bytes", 0, "server mode: persistent-store size quota; least recently used entries are evicted past it (0 = unbounded)")
	cmd.DurationVar(&cfg.JobTTL, "job-ttl", 0, "server mode: drop completed jobs from the registry after this long (0 = keep forever; stored results survive)")
	cmd.IntVar(&cfg.Workers, "workers", 0, "server mode: simulation worker-pool size (0 = GOMAXPROCS)")
	cmd.IntVar(&cfg.QueueLimit, "queue", 0, "server mode: admission queue bound, submissions beyond it get 429 (0 = default, <0 = unbounded)")
	drain := cmd.Duration("drain", 30*time.Second, "server mode: grace period for in-flight jobs on SIGINT/SIGTERM")
	noCosim := cmd.Bool("no-cosim", false, "server mode: disable emulator co-simulation in the base config")

	var req serve.SubmitRequest
	server := cmd.String("server", "", "client mode: darco-serve base URL (selects client mode)")
	cmd.StringVar(&req.Workload, "submit", "", "client mode: workload reference to submit (<source>:<name>)")
	cmd.Float64Var(&req.Scale, "scale", 1.0, "client mode: workload dynamic-size multiplier")
	cmd.StringVar(&req.Tenant, "tenant", "", "client mode: fair-queuing tenant of the submission")
	cmd.StringVar(&req.Mode, "mode", "", "client mode: timing mode override (shared, app-only, tol-only, split)")
	health := cmd.Bool("health", false, "client mode: print server health and exit")
	cancelID := cmd.String("cancel", "", "client mode: cancel this queued or running job and exit")
	jobsList := cmd.Bool("jobs-list", false, "client mode: list server jobs and exit")
	storeList := cmd.Bool("store-list", false, "client mode: list the server's persistent store and exit")
	timeout := cmd.Duration("timeout", 0, "client mode: overall deadline (0 = none)")
	if code, ok := cmd.Parse(args); !ok {
		return code
	}

	if *server == "" {
		if req.Workload != "" || *cancelID != "" || *health || *jobsList || *storeList {
			return cmd.Exit(cli.Usage, "client flags need -server <url>")
		}
		return serverMain(ctx, cmd, cfg, *listen, *storeDir, *drain, *noCosim)
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	c := serve.NewClient(*server)
	// dump prints one query's answer as indented JSON.
	dump := func(v any, err error) int {
		out, merr := json.MarshalIndent(v, "", "  ")
		if err = errors.Join(err, merr); err != nil {
			return cmd.Exit(cli.Fail, err)
		}
		fmt.Fprintf(stdout, "%s\n", out)
		return cli.OK
	}
	switch {
	case *health:
		return dump(c.Health(ctx))
	case *jobsList:
		return dump(c.Jobs(ctx, req.Tenant))
	case *storeList:
		return dump(c.StoreList(ctx))
	case *cancelID != "":
		return dump(c.Cancel(ctx, *cancelID))
	case req.Workload == "":
		return cmd.Exit(cli.Usage, "client mode needs -submit <ref> (or -cancel / -health / -jobs-list / -store-list)")
	}
	return submit(ctx, cmd, c, req)
}

// serverMain serves cfg on listen until ctx is cancelled, then drains.
func serverMain(ctx context.Context, cmd *cli.Tool, cfg serve.Config, listen, storeDir string, drain time.Duration, noCosim bool) int {
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return cmd.Exit(cli.Fail, err)
		}
		cfg.Store = st
		cmd.Log("store", storeDir)
		// Apply the quota to whatever the directory already holds, so a
		// restart with a tighter bound converges immediately.
		if removed, freed, err := st.EvictToSize(cfg.StoreMaxBytes); err != nil {
			cmd.Log("store quota:", err)
		} else if removed > 0 {
			cmd.Log(fmt.Sprintf("store quota: evicted %d entries (%d bytes)", removed, freed))
		}
	}
	if noCosim {
		base := darco.DefaultConfig()
		base.TOL.Cosim = false
		cfg.Base = &base
	}
	srv := serve.NewServer(cfg)

	// Bind before announcing: the logged address is the one in use (":0"
	// included) and a bad -listen fails without claiming to listen.
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return cmd.Exit(cli.Fail, err)
	}
	cmd.Log("listening on", ln.Addr())
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// Graceful shutdown: stop accepting connections, then drain the
	// simulation pipeline with the -drain grace period.
	select {
	case err := <-errc:
		return cmd.Exit(cli.Fail, err)
	case <-ctx.Done():
	}
	cmd.Log(fmt.Sprintf("draining (up to %s)...", drain))
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	code := cli.OK
	if err := srv.Shutdown(dctx); err != nil {
		code = cmd.Exit(cli.Fail, "drain:", err)
	}
	_ = hs.Shutdown(dctx)
	return code
}

// submit enqueues one job, relays its events to stderr and prints the
// terminal record.
func submit(ctx context.Context, cmd *cli.Tool, c *serve.Client, req serve.SubmitRequest) int {
	resp, err := c.Submit(ctx, req)
	if serve.IsOverloaded(err) {
		return cmd.Exit(cli.Fail, "server overloaded, retry later:", err)
	} else if err != nil {
		return cmd.Exit(cli.Fail, err)
	}
	fmt.Fprintf(cmd.Stderr, "submitted %s as %s (key %s)\n", req.Workload, resp.ID, resp.Key)
	if err := c.Events(ctx, resp.ID, func(ev serve.WireEvent) {
		if ev.Error != "" {
			fmt.Fprintf(cmd.Stderr, "event %-8s %s: %s\n", ev.Kind, ev.Job, ev.Error)
		} else if ev.Cycles != 0 {
			fmt.Fprintf(cmd.Stderr, "event %-8s %s (%d cycles)\n", ev.Kind, ev.Job, ev.Cycles)
		} else {
			fmt.Fprintf(cmd.Stderr, "event %-8s %s\n", ev.Kind, ev.Job)
		}
	}); err != nil && !errors.Is(err, context.Canceled) {
		cmd.Log("event stream:", err)
	}
	raw, err := c.ResultRaw(ctx, resp.ID, true)
	if err != nil {
		return cmd.Exit(cli.Fail, err)
	}
	fmt.Fprintf(cmd.Stdout, "%s\n", raw)
	var rec darco.Record
	if json.Unmarshal(raw, &rec) == nil && rec.Error != "" {
		return cmd.Exit(cli.Fail, "job failed:", rec.Error)
	}
	return cli.OK
}
