// Command darco-suite runs benchmark suites through the simulation
// infrastructure and prints a per-benchmark summary (the quantities
// behind Figures 5–8 in one table), plus suite averages.
//
// Usage:
//
//	darco-suite [-scale f] [-suite name] [-bench name] [-mode m] [-jobs n] [-csv|-json]
//	darco-suite -O 1 -promote adaptive     # sweep under an ablated TOL config
//	darco-suite -passes constprop,dce,sched
//	darco-suite -cc-size 1024 -cc-policy flush-all  # bounded code cache
//	darco-suite -sample 4 -interval 200000          # sampled simulation
//	darco-suite -workload trace:run.trace.json,phased:401.bzip2+470.lbm
//	darco-suite -server http://host:8080 -timeout 30m  # run on darco-serve
//
// -workload adds programs by Source-registry reference
// ("<source>:<name>") to the selected set; given alone it replaces the
// catalog, so a suite run over only traces or composites needs no
// other flag.
//
// Benchmarks execute concurrently on a darco.Session worker pool
// (-jobs); the engine is deterministic, so the table is identical for
// any worker count. A failing benchmark no longer kills the sweep:
// the remaining benchmarks still run, the failures are reported in a
// per-benchmark error summary at the end, and the exit status is
// non-zero. -json emits an array of darco.Record (full results
// included), the interchange format cmd/darco-figs -from consumes.
package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/darco"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/timing"
	"repro/internal/workload"
)

func main() { cli.Main(run) }

// run is the command behind cli.Main's testable seam.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("darco-suite", stdout, stderr)
	suite := cmd.String("suite", "", "restrict to one suite (int, fp, physics, media)")
	bench := cmd.String("bench", "", "restrict to one benchmark (exact name)")
	csv := cmd.Bool("csv", false, "emit CSV instead of an aligned table")
	verbose := cmd.Bool("v", false, "progress to stderr")
	b := cmd.BindBatch("(<source>:<name>) added to the selection",
		"emit JSON records (full results) instead of a table", "sweep")
	cmd.StringVar(&b.Knobs.Mode, "mode", timing.ModeShared.String(), "timing mode: shared, app-only, tol-only, split")
	stop, code, ok := b.Parse(cmd, args)
	if !ok {
		return code
	}
	defer stop()
	if *bench != "" && *suite != "" {
		return cmd.Exit(cli.Usage, "-suite has no effect here: -bench selects exactly one benchmark")
	}

	// The selection: one benchmark, one suite of the -isa frontend's
	// catalog, or all of it unless -workload alone replaces it.
	var names []string
	switch {
	case *bench != "":
		s, err := workload.ByName(*bench)
		if err != nil {
			return cmd.Exit(cli.Usage, err)
		}
		names = []string{s.Name}
	case *suite != "":
		su, err := workload.ParseSuite(*suite)
		if err != nil {
			return cmd.Exit(cli.Usage, err)
		}
		for _, s := range workload.CatalogFor(b.Knobs.ISA) {
			if s.Suite == su {
				names = append(names, s.Name)
			}
		}
		if len(names) == 0 {
			return cmd.Exit(cli.Usage, fmt.Sprintf("the %s catalog has no %s benchmark", b.Knobs.ISA, su))
		}
	case b.Workload == "":
		for _, s := range workload.CatalogFor(b.Knobs.ISA) {
			names = append(names, s.Name)
		}
	}

	cfg, err := b.Config(darco.DefaultConfig())
	if err != nil {
		return cmd.Exit(cli.Usage, err)
	}
	var progress []darco.SessionOption
	if *verbose {
		progress = append(progress, darco.WithEvents(func(ev darco.Event) {
			if ev.Kind == darco.EventStarted {
				fmt.Fprintf(stderr, "running %s...\n", ev.Job)
			}
		}))
	}
	return b.Run(ctx, cmd, cfg, b.Refs(append(names, b.Workload)...), func(done []sweep.Row) {
		t := stats.NewTable("DARCO suite summary",
			"benchmark", "suite", "guest-dyn", "static", "ratio", "cycles", "IPC",
			"tol%", "im%", "bbm%", "sbm%", "dyn-sbm%", "sbs", "ind/K", "chains", "transitions")
		for _, row := range done {
			meta := row.Program.Meta()
			suiteLabel := meta.Suite
			if suiteLabel == "" {
				suiteLabel = meta.Source
			}
			res := row.Result
			dyn := float64(res.GuestDyn())
			cyc := float64(res.Timing.Cycles)
			comp := func(c timing.Component) string {
				return fmt.Sprintf("%.1f", 100*res.Timing.ComponentCycles(c)/cyc)
			}
			t.AddRow(row.Name, suiteLabel,
				fmt.Sprint(res.GuestDyn()),
				fmt.Sprint(res.TOL.StaticTotal()),
				fmt.Sprintf("%.0f", res.DynamicStaticRatio()),
				fmt.Sprint(res.Timing.Cycles),
				fmt.Sprintf("%.2f", res.Timing.IPC()),
				fmt.Sprintf("%.1f", 100*res.Timing.TOLShare()),
				comp(timing.CompIM), comp(timing.CompBBM), comp(timing.CompSBM),
				fmt.Sprintf("%.1f", 100*float64(res.TOL.DynSBM)/dyn),
				fmt.Sprint(res.TOL.SBCreated),
				fmt.Sprintf("%.1f", 1000*float64(res.TOL.IndirectDyn)/dyn),
				fmt.Sprint(res.TOL.Chains),
				fmt.Sprint(res.TOL.Transitions))
		}
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprint(stdout, t.String())
		}
	}, progress...)
}
