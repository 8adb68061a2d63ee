// Interaction: the Figure 10/11 experiment on one benchmark — how much
// do TOL and the emulated application interfere on the shared
// microarchitectural resources? The same deterministic execution is
// timed twice: once with shared caches/predictor and once with
// per-entity private copies ("interaction not modeled"), and the
// per-entity attributed cycles are compared.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/darco"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "400.perlbench", "benchmark to analyze")
	scale := flag.Float64("scale", 2.0, "workload dynamic-size multiplier")
	flag.Parse()

	spec, err := workload.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scale(*scale)
	// One job timed in both modes. Identical streams; timing-only
	// experiment, so skip co-simulation.
	shared := darco.JobForProgram(workload.SpecProgram{Spec: spec}, *scale)
	shared.Config.TOL.Cosim = false
	split := shared
	split.Config.Mode = timing.ModeSplit
	runs := darco.NewSession().RunBatch(context.Background(), []darco.Job{shared, split})
	for _, br := range runs {
		if br.Err != nil {
			log.Fatal(br.Err)
		}
	}
	ir := darco.InteractionResult{Shared: runs[0].Result, Split: runs[1].Result}

	fmt.Printf("benchmark: %s, %d guest instructions\n\n", spec.Name, ir.Shared.GuestDyn())

	t := stats.NewTable("Interaction on shared resources (paper Fig. 10)",
		"entity", "cycles w/ interaction", "cycles w/o interaction", "slowdown")
	appW := ir.Shared.Timing.OwnerCycles(timing.OwnerApp)
	appWo := ir.Split.Timing.OwnerCycles(timing.OwnerApp)
	tolW := ir.Shared.Timing.OwnerCycles(timing.OwnerTOL)
	tolWo := ir.Split.Timing.OwnerCycles(timing.OwnerTOL)
	t.AddRow("application", fmt.Sprintf("%.0f", appW), fmt.Sprintf("%.0f", appWo),
		fmt.Sprintf("%.3f", ir.AppSlowdown()))
	t.AddRow("TOL", fmt.Sprintf("%.0f", tolW), fmt.Sprintf("%.0f", tolWo),
		fmt.Sprintf("%.3f", ir.TOLSlowdown()))
	fmt.Println(t.String())

	pt := stats.NewTable("Potential improvement if interaction eliminated (paper Fig. 11)",
		"entity", "d$-miss", "i$-miss", "sched", "branch")
	for _, o := range []timing.Owner{timing.OwnerTOL, timing.OwnerApp} {
		pt.AddRow(o.String(),
			stats.Pct(ir.Potential(o, timing.BubbleDMiss)),
			stats.Pct(ir.Potential(o, timing.BubbleIMiss)),
			stats.Pct(ir.Potential(o, timing.BubbleSched)),
			stats.Pct(ir.Potential(o, timing.BubbleBranch)))
	}
	fmt.Println(pt.String())
}
