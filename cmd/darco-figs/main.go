// Command darco-figs regenerates the paper's evaluation figures
// (Figures 5–11) as tables. Each figure's series are printed in the
// same units the paper plots.
//
// Usage:
//
//	darco-figs                  # all figures, full catalog
//	darco-figs -fig 6           # one figure
//	darco-figs -fig cc          # cache-pressure sweep (not part of "all")
//	darco-figs -fig phase       # phase-behaviour sweep (not part of "all")
//	darco-figs -fig phase -phases 6 -phase-cap 1024
//	darco-figs -fig sample      # sampled-vs-full error + speedup (not part of "all")
//	darco-figs -fig sample -sample 8 -interval 100000 -warmup 5000
//	darco-figs -scale 2 -csv
//	darco-figs -jobs 8          # parallel figure regeneration
//	darco-figs -from a.json,b.json  # reuse darco-suite -json results
//	darco-figs -fig 6 -workload trace:run.trace.json  # replayed workloads
//	darco-figs -server http://host:8080 -timeout 1h   # run on darco-serve
//	darco-figs -grid examples/grids/promotion-streambatch.json -csv
//	darco-figs -grid spec.json -store results/        # resumable sweep
//	darco-figs -grid spec.json -shard 0/4             # one shard of the cells
//
// -benchmarks and -workload both take workload Source-registry
// references ("<source>:<name>"; bare names mean the synthetic
// catalog); -workload appends to the -benchmarks selection.
//
// Simulation goes through a darco.Session worker pool (-jobs); the
// engine is deterministic, so the regenerated tables are identical for
// any worker count. -from preloads full results from JSON records
// emitted by cmd/darco or cmd/darco-suite -json, so figures can be
// reassembled without re-simulating the preloaded (benchmark, mode)
// pairs. -json emits the tables themselves as JSON.
//
// -grid replaces the built-in figures with a declarative
// characterization grid (internal/sweep): a JSON spec naming workloads
// and knob axes; every cell simulates through the same session and the
// report lands on stdout as a table, CSV (-csv) or JSON (-json).
// -store attaches a content-addressed result store — completed cells
// persist, so an interrupted sweep resumes where it stopped — and
// -shard i/n runs one deterministic 1/n slice of the cells, so a grid
// can be split across machines sharing a store.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/darco"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() { cli.Main(run) }

// sweepIDs are the parameterized sweeps -fig selects besides the paper
// figures; they are opt-in and not part of "all" (cc runs 1 +
// 3×len(capacities) simulations per benchmark, phase simulates
// composites of growing length, sample runs and times every benchmark
// twice), so restrict them with -benchmarks for quick sweeps.
var sweepIDs = []string{"cc", "phase", "sample"}

// run is the command behind cli.Main's testable seam.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	figIDs := append(append(experiments.FigureIDs(), sweepIDs...), "all")

	cmd := cli.New("darco-figs", stdout, stderr)
	fig := cmd.String("fig", "all", "figure to regenerate: "+strings.Join(figIDs, ", ")+" (5a, 5b select one table of figure 5; 'all' excludes the "+strings.Join(sweepIDs, ", ")+" sweeps)")
	csv := cmd.Bool("csv", false, "emit CSV")
	quiet := cmd.Bool("q", false, "suppress progress output")
	benches := cmd.String("benchmarks", "", "comma-separated subset of benchmarks (workload references)")
	phases := cmd.Int("phases", 0, "largest composite of the -fig phase sweep (0 = default)")
	phaseCap := cmd.Int("phase-cap", 0, "bounded code-cache capacity of the -fig phase sweep in instruction slots (0 = default)")
	from := cmd.String("from", "", "comma-separated JSON record files (darco/darco-suite -json output) to reuse instead of simulating")
	gridSpec := cmd.String("grid", "", "run a declarative characterization grid from this JSON spec (see examples/grids) instead of the built-in figures")
	storeDir := cmd.String("store", "", "content-addressed result store directory; completed work persists there and re-runs resume from it")
	shard := cmd.String("shard", "", "with -grid, run only this deterministic slice of the cells, as i/n (e.g. 0/4)")
	b := cmd.BindBatch("(<source>:<name>) appended to -benchmarks", "emit the tables as JSON", "regeneration")
	if code, ok := cmd.Parse(args); !ok {
		return code
	}

	// The figure selection: 5a/5b name one table of figure 5.
	sel, onlyTable := *fig, -1
	if sel == "5a" || sel == "5b" {
		sel, onlyTable = "5", int(sel[1]-'a')
	}
	if !slices.Contains(figIDs, sel) {
		return cmd.Exit(cli.Usage, fmt.Sprintf("unknown -fig %q (have %s)", *fig, strings.Join(figIDs, ", ")))
	}
	// Flags that the selected path would silently ignore are usage
	// errors, each with the reason it has no effect there.
	given := map[string]bool{}
	cmd.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, c := range []struct {
		when   bool
		flags  []string
		reason string
	}{
		{*gridSpec != "", []string{"fig", "benchmarks", "workload", "from", "phases", "phase-cap"}, "-grid runs the spec's own workloads and axes"},
		{*gridSpec == "", []string{"shard"}, "it selects a slice of a -grid sweep's cells"},
		{sel != "phase", []string{"phases", "phase-cap"}, "it sizes the -fig phase sweep"},
		{sel == "sample", []string{"server", "store", "from"}, "-fig sample times fresh local runs on a private session"},
		// A base-config bound would be overwritten per point.
		{sel == "cc" && (b.Knobs.CCSize != nil || b.Knobs.CCPolicy != ""), []string{"cc-size", "cc-policy"},
			"-fig cc sweeps its own capacities and policies (use cmd/darco or cmd/darco-suite for a single bounded configuration)"},
	} {
		for _, name := range c.flags {
			if c.when && given[name] {
				return cmd.Exit(cli.Usage, fmt.Sprintf("-%s has no effect here: %s", name, c.reason))
			}
		}
	}

	ctx, cancel := cli.WithTimeout(ctx, b.Timeout)
	defer cancel()

	cfg, err := b.Config(darco.DefaultConfig())
	if err != nil {
		return cmd.Exit(cli.Usage, err)
	}
	opts := experiments.Options{Scale: b.Scale, Config: cfg, Jobs: b.Jobs, Context: ctx, SessionOptions: b.SessionOptions()}
	if sel == "sample" {
		// The sweep compares sampled against full runs itself; the base
		// config must stay full-detail so the reference leg is one.
		opts.Config.Sampling = nil
	}
	if !*quiet {
		opts.Log = stderr
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return cmd.Exit(cli.Usage, err)
		}
		opts.SessionOptions = append(opts.SessionOptions, darco.WithStore(st))
	}
	if *gridSpec != "" {
		if err := runGrid(ctx, stdout, *gridSpec, *shard, &opts, *csv, b.JSON); err != nil {
			return cmd.Exit(cli.Fail, err)
		}
		return cli.OK
	}
	opts.Benchmarks = b.Refs(*benches, b.Workload)
	for _, path := range strings.FieldsFunc(*from, func(r rune) bool { return r == ',' }) {
		recs, err := loadRecords(strings.TrimSpace(path))
		if err != nil {
			return cmd.Exit(cli.Usage, err)
		}
		opts.Preload = append(opts.Preload, recs...)
	}
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return cmd.Exit(cli.Usage, err)
	}

	var jsonTables []*stats.Table
	emit := func(t *stats.Table) {
		switch {
		case b.JSON:
			jsonTables = append(jsonTables, t)
		case *csv:
			fmt.Fprintln(stdout, t.CSV())
		default:
			fmt.Fprintln(stdout, t.String())
		}
	}

	for _, id := range experiments.FigureIDs() {
		if sel != "all" && sel != id {
			continue
		}
		tables, err := r.Figure(id)
		if err != nil {
			return cmd.Exit(cli.Fail, err)
		}
		for i, t := range tables {
			if onlyTable < 0 || i == onlyTable {
				emit(t)
			}
		}
	}
	var t *stats.Table
	switch sel {
	case "cc":
		t, err = r.FigCC(nil)
	case "phase":
		t, err = r.FigPhase(*phases, *phaseCap)
	case "sample":
		// -sample/-interval/-warmup override the sweep's default plan.
		t, err = r.FigSample(cfg.Sampling)
	}
	if err != nil {
		return cmd.Exit(cli.Fail, err)
	}
	if t != nil {
		emit(t)
	}

	if b.JSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonTables); err != nil {
			return cmd.Exit(cli.Fail, err)
		}
	}
	return cli.OK
}

// runGrid executes one declarative sweep spec on the flag-built base
// configuration and session (store, remote, worker count) and emits
// its report in the format the figure path would use. Per-cell
// failures are recorded in the report and returned after it prints, so
// a partially failed sweep still shows everything that ran.
func runGrid(ctx context.Context, stdout io.Writer, path, shard string, opts *experiments.Options, csv, jsonOut bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	g, err := sweep.DecodeGrid(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if g.Scale == 0 {
		g.Scale = opts.Scale
	}
	sopts := sweep.Options{
		Config:  &opts.Config,
		Jobs:    opts.Jobs,
		Session: opts.SessionOptions,
		Log:     opts.Log,
	}
	if shard != "" {
		if _, err := fmt.Sscanf(shard, "%d/%d", &sopts.Shard, &sopts.Shards); err != nil {
			return fmt.Errorf("bad -shard %q (want i/n, e.g. 0/4): %v", shard, err)
		}
	}
	rs, runErr := sweep.Run(ctx, g, sopts)
	if rs != nil {
		switch {
		case jsonOut:
			if err := rs.WriteJSON(stdout); err != nil {
				return err
			}
		case csv:
			fmt.Fprint(stdout, rs.CSV())
		default:
			fmt.Fprint(stdout, rs.Table().String())
		}
	}
	return runErr
}

// loadRecords reads one []darco.Record file produced by cmd/darco or
// cmd/darco-suite -json. Records without a full result (summaries only
// or failures) are dropped by the experiments preloader.
func loadRecords(path string) ([]darco.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := darco.DecodeRecords(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
