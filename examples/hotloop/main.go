// Hotloop: the libquantum scenario — a tiny kernel with an extreme
// dynamic/static instruction ratio. The example shows how the staged
// translation amortizes: the same program is run with interpretation
// only, with basic-block translation, and with the full superblock
// optimizer, and the cycle counts are compared.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/darco"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	spec, err := workload.ByName("462.libquantum")
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scale(0.5)

	t := stats.NewTable("Staged translation on a hot loop (462.libquantum-like)",
		"configuration", "cycles", "IPC", "tol-share", "dyn IM", "dyn BBM", "dyn SBM")

	type cfgCase struct {
		name string
		mut  func(*darco.Config)
	}
	cases := []cfgCase{
		{"IM only (no translation)", func(c *darco.Config) {
			c.TOL.BBThreshold = 1 << 30
		}},
		{"IM + BBM (no optimizer)", func(c *darco.Config) {
			c.TOL.EnableSBM = false
		}},
		{"IM + BBM + SBM (full TOL)", func(c *darco.Config) {}},
	}

	sess := darco.NewSession()
	var cycles []uint64
	for _, cc := range cases {
		job := darco.JobForProgram(workload.SpecProgram{Spec: spec}, 0.5)
		cc.mut(&job.Config)
		res, err := sess.Run(context.Background(), job)
		if err != nil {
			log.Fatal(err)
		}
		cycles = append(cycles, res.Timing.Cycles)
		t.AddRow(cc.name,
			fmt.Sprint(res.Timing.Cycles),
			fmt.Sprintf("%.2f", res.Timing.IPC()),
			stats.Pct(res.Timing.TOLShare()),
			fmt.Sprint(res.TOL.DynIM), fmt.Sprint(res.TOL.DynBBM), fmt.Sprint(res.TOL.DynSBM))
	}
	fmt.Println(t.String())
	fmt.Printf("speedup BBM over IM-only: %.1fx\n", float64(cycles[0])/float64(cycles[1]))
	fmt.Printf("speedup SBM over BBM:     %.2fx\n", float64(cycles[1])/float64(cycles[2]))
	fmt.Printf("total staged speedup:     %.1fx\n", float64(cycles[0])/float64(cycles[2]))
}
