// Indirect: the perlbench scenario — indirect-branch heavy code and
// its cost on a co-designed processor. The example contrasts the same
// workload with the IBTC enabled and disabled, showing how much the
// inline translation cache saves over transitioning to TOL for a code
// cache lookup on every indirect branch (the paper's Section III-B
// discussion).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/darco"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/workload"
)

func main() {
	spec, err := workload.ByName("400.perlbench")
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scale(0.5)

	t := stats.NewTable("Indirect-branch handling (400.perlbench-like)",
		"configuration", "cycles", "tol-share", "code$-lookup%", "tol-other%", "transitions", "ibtc-fills")

	sess := darco.NewSession()
	for _, ibtc := range []bool{true, false} {
		job := darco.JobForProgram(workload.SpecProgram{Spec: spec}, 0.5)
		job.Config.TOL.EnableIBTC = ibtc
		res, err := sess.Run(context.Background(), job)
		if err != nil {
			log.Fatal(err)
		}
		name := "IBTC enabled"
		if !ibtc {
			name = "IBTC disabled (TOL on every indirect)"
		}
		cyc := float64(res.Timing.Cycles)
		t.AddRow(name,
			fmt.Sprint(res.Timing.Cycles),
			stats.Pct(res.Timing.TOLShare()),
			fmt.Sprintf("%.2f", 100*res.Timing.ComponentCycles(timing.CompCodeCacheLookup)/cyc),
			fmt.Sprintf("%.2f", 100*res.Timing.ComponentCycles(timing.CompTOLOther)/cyc),
			fmt.Sprint(res.TOL.Transitions),
			fmt.Sprint(res.TOL.IBTCFills))
	}
	fmt.Println(t.String())
	fmt.Println("Without the IBTC every guest indirect branch transitions to TOL for a")
	fmt.Println("code cache lookup — the dominant overhead the paper reports for")
	fmt.Println("indirect-branch heavy applications like 400.perlbench.")
}
