// Phases: the workload-source API in one sitting. A phased composite
// moves through distinct hot working sets, so a bounded code cache
// must evict the previous phase's translations and retranslate on any
// return — activity a single benchmark never triggers at steady
// state. The example opens composites of growing length through the
// Source registry, runs them unbounded and bounded, and then records
// one to a trace and replays it, showing the replay is exact.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/darco"
	"repro/internal/stats"
	"repro/internal/tol"
	"repro/internal/workload"
)

func main() {
	const capacity = 640
	cache := tol.CacheConfig{CapacityInsts: capacity, Policy: "lru-translation"}
	refs := []string{
		"phased:401.bzip2",
		"phased:401.bzip2+462.libquantum",
		"phased:401.bzip2+462.libquantum+429.mcf",
	}

	t := stats.NewTable(
		fmt.Sprintf("Phase behaviour under a %d-slot code cache", capacity),
		"workload", "phases", "cc", "cycles", "evictions", "retrans", "cc-peak")

	sess := darco.NewSession()
	for _, ref := range refs {
		p, err := workload.OpenScaled(ref, 0.3)
		if err != nil {
			log.Fatal(err)
		}
		for _, bounded := range []bool{false, true} {
			job := darco.JobForProgram(p, 0.3)
			cc := "unbounded"
			if bounded {
				job.Config.TOL.Cache = cache
				cc = fmt.Sprint(capacity)
			}
			res, err := sess.Run(context.Background(), job)
			if err != nil {
				log.Fatal(err)
			}
			t.AddRow(p.Name(), fmt.Sprint(p.Meta().Phases), cc,
				fmt.Sprint(res.Timing.Cycles),
				fmt.Sprint(res.TOL.Evictions),
				fmt.Sprint(res.TOL.Retranslations),
				fmt.Sprint(res.TOL.CacheOccupancyPeak))
		}
	}
	fmt.Println(t.String())

	// Record the longest composite and replay it: the trace rebuilds
	// the exact guest image, so the replay's stats match the direct
	// run's under the same configuration.
	last, err := workload.OpenScaled(refs[len(refs)-1], 0.3)
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "phases.trace.json")
	if err := workload.RecordTrace(path, last); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	replay, err := workload.Open("trace:" + path)
	if err != nil {
		log.Fatal(err)
	}
	run := func(p workload.Program) *darco.Result {
		job := darco.JobForProgram(p, 0.3)
		job.Config.TOL.Cache = cache
		res, err := sess.Run(context.Background(), job)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	direct, replayed := run(last), run(replay)
	fmt.Printf("recorded %s -> %s\n", last.Name(), path)
	fmt.Printf("replay cycles %d vs direct %d, evictions %d vs %d (exact: %v)\n",
		replayed.Timing.Cycles, direct.Timing.Cycles,
		replayed.TOL.Evictions, direct.TOL.Evictions,
		replayed.Timing.Cycles == direct.Timing.Cycles &&
			reflect.DeepEqual(replayed.TOL, direct.TOL))
}
