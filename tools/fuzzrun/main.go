// Command fuzzrun is the differential-fuzzing driver: it generates
// seeded random workloads (the workload fuzz: source), sweeps each one
// across a configuration matrix with co-simulation enabled, shrinks
// any divergence to a minimal reproducer, and files reproducers as
// trace: regression artifacts.
//
//	go run ./tools/fuzzrun -n 8 -seed 1                  # smoke sweep
//	go run ./tools/fuzzrun -n 64 -configs full -json     # nightly depth
//	go run ./tools/fuzzrun -n 2 -fault bbm-drop-inc      # mutation test
//
// The exit status is 0 when every program survived every check, 1 when
// any divergence or cross-check failure was found (the JSON or text
// report describes it), 2 on usage errors — an unknown -configs or
// -fault is one, reported before any program runs — and when the
// harness itself cannot sweep a program.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/darco"
	"repro/internal/fuzz"
	"repro/internal/tol"
	"repro/internal/workload"
)

type programReport struct {
	Seed      int64                `json:"seed"`
	Profile   string               `json:"profile"`
	Name      string               `json:"name"`
	Report    *fuzz.Report         `json:"report"`
	Minimized *fuzz.MinimizeResult `json:"minimized,omitempty"`
	Artifact  string               `json:"artifact,omitempty"`
}

type runReport struct {
	Configs     string          `json:"configs"`
	Cells       int             `json:"cells"`
	Programs    []programReport `json:"programs"`
	Divergences int             `json:"divergences"`
	Failures    int             `json:"failures"` // cross-check/leg failures without a cosim divergence
	Coverage    fuzz.Coverage   `json:"coverage"`
}

func main() { cli.Main(run) }

// run is the command behind cli.Main's testable seam.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("fuzzrun", stdout, stderr)
	n := cmd.Int("n", 8, "number of generated programs")
	seed := cmd.Int64("seed", 1, "first seed; program i uses seed+i")
	profile := cmd.String("profile", "", "generation profile (default: rotate "+strings.Join(workload.FuzzProfiles(), ", ")+")")
	configs := cmd.String("configs", "smoke", "configuration matrix: smoke or full")
	minimize := cmd.Bool("minimize", true, "shrink diverging specs to minimal reproducers")
	out := cmd.String("out", "testdata/regressions", "directory for minimized regression artifacts (empty: don't write)")
	maxInsts := cmd.Int("max-insts", 200_000, "per-program dynamic guest instruction clamp")
	fault := cmd.String("fault", "", "inject a registered translator fault for mutation testing ("+strings.Join(tol.Faults(), ", ")+")")
	snapshot := cmd.Bool("snapshot", true, "cross-check snapshot-mid-run/resume against uninterrupted runs")
	sampled := cmd.Bool("sampled", true, "cross-check sampled simulation against full runs")
	workers := cmd.Int("workers", 0, "session worker-pool size (0: GOMAXPROCS)")
	jsonOut := cmd.Bool("json", false, "emit the full report as JSON on stdout")
	if code, ok := cmd.Parse(args); !ok {
		return code
	}

	cells, err := fuzz.Matrix(*configs)
	if err != nil {
		return cmd.Exit(cli.Usage, err)
	}
	if *fault != "" && !slices.Contains(tol.Faults(), *fault) {
		return cmd.Exit(cli.Usage, fmt.Sprintf("unknown -fault %q (registered: %s)", *fault, strings.Join(tol.Faults(), ", ")))
	}
	o := fuzz.New(cells)
	if *workers > 0 {
		o.Session = darco.NewSession(darco.WithWorkers(*workers))
	}
	o.SnapshotCheck, o.SampledCheck, o.Fault = *snapshot, *sampled, *fault

	rep := runReport{Configs: *configs, Cells: len(cells)}
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		prof := *profile
		if prof == "" {
			prof = workload.FuzzProfiles()[i%len(workload.FuzzProfiles())]
		}
		spec, err := workload.GenSpec(s, prof)
		if err != nil {
			return cmd.Exit(cli.Usage, err)
		}
		spec = spec.Clamp(*maxInsts)

		pr := programReport{Seed: s, Profile: prof, Name: spec.Name}
		pr.Report, err = o.Check(ctx, spec)
		if err != nil {
			return cmd.Exit(cli.Usage, spec.Name+":", err)
		}
		rep.Coverage = addCoverage(rep.Coverage, pr.Report.Coverage)
		if f := pr.Report.Finding(); f != nil {
			rep.Divergences++
			if *minimize {
				min, err := o.Minimize(ctx, f, 0)
				if err != nil {
					return cmd.Exit(cli.Usage, "minimize "+spec.Name+":", err)
				}
				pr.Minimized = min
				if *out != "" {
					pr.Artifact, err = fuzz.WriteRegression(*out, min.Spec)
					if err != nil {
						return cmd.Exit(cli.Usage, "file regression for "+spec.Name+":", err)
					}
				}
			}
		} else if !pr.Report.Clean() {
			rep.Failures++
		}
		rep.Programs = append(rep.Programs, pr)
		if !*jsonOut {
			printProgram(stdout, &pr)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			return cmd.Exit(cli.Usage, err)
		}
	} else {
		fmt.Fprintf(stdout, "fuzzrun: %d programs x %d cells (%s): %d divergences, %d failures\n",
			len(rep.Programs), rep.Cells, rep.Configs, rep.Divergences, rep.Failures)
		c := rep.Coverage
		fmt.Fprintf(stdout, "coverage: %d guest insts, %d BB translations, %d promotions, %d evictions, %d retranslations, %d IBTC fills, %d IBTC hits, %d cosim checks\n",
			c.DynTotal, c.BBTranslated, c.Promotions, c.Evictions, c.Retranslations, c.IBTCFills, c.IBTCHits, c.CosimChecks)
		for _, isa := range []string{"x86", "rv32"} {
			if dyn, ok := c.ByISA[isa]; ok {
				fmt.Fprintf(stdout, "coverage[%s]: %d guest insts\n", isa, dyn)
			}
		}
	}
	if rep.Divergences > 0 || rep.Failures > 0 {
		return cli.Fail
	}
	return cli.OK
}

func addCoverage(a, b fuzz.Coverage) fuzz.Coverage {
	a.DynTotal += b.DynTotal
	a.BBTranslated += b.BBTranslated
	a.Promotions += b.Promotions
	a.Evictions += b.Evictions
	a.Retranslations += b.Retranslations
	a.IBTCFills += b.IBTCFills
	a.IBTCHits += b.IBTCHits
	a.Chains += b.Chains
	a.CosimChecks += b.CosimChecks
	for isa, dyn := range b.ByISA {
		if a.ByISA == nil {
			a.ByISA = make(map[string]uint64)
		}
		a.ByISA[isa] += dyn
	}
	return a
}

func printProgram(w io.Writer, pr *programReport) {
	status := "clean"
	switch {
	case pr.Report.Finding() != nil:
		status = "DIVERGED"
	case !pr.Report.Clean():
		status = "FAILED"
	}
	fmt.Fprintf(w, "%-24s seed=%-6d %-8s %s\n", pr.Name, pr.Seed, pr.Profile, status)
	for _, c := range pr.Report.Cells {
		if c.Div != nil {
			fmt.Fprintf(w, "  %s:\n%s", c.Name, indent(c.Div.Report()))
		} else if c.Err != "" {
			fmt.Fprintf(w, "  %s: error: %s\n", c.Name, c.Err)
		}
	}
	for _, leg := range []struct{ name, msg string }{
		{"cross-check", pr.Report.CrossCheck},
		{"snapshot", pr.Report.SnapshotErr},
		{"sampled", pr.Report.SampledErr},
	} {
		if leg.msg != "" {
			fmt.Fprintf(w, "  %s: %s\n", leg.name, leg.msg)
		}
	}
	if pr.Minimized != nil {
		fmt.Fprintf(w, "  minimized to %d blocks in %d steps (%d attempts)\n",
			pr.Minimized.Blocks, pr.Minimized.Steps, pr.Minimized.Attempts)
	}
	if pr.Artifact != "" {
		fmt.Fprintf(w, "  regression filed: %s\n", pr.Artifact)
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "    " + strings.Join(lines, "\n    ") + "\n"
}
