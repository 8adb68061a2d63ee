package darco_test

import (
	"context"
	"fmt"

	"repro/internal/darco"
	"repro/internal/guest"
	"repro/internal/tol"
	"repro/internal/workload"
)

// ExampleRun builds a tiny guest program with the guest.Builder API
// and runs it end to end through the co-designed processor: TOL
// translates and optimizes the hot loop, the timing simulator charges
// every host instruction, and co-simulation verifies each step against
// the authoritative emulator. Only architectural results are printed —
// they are stable across timing-model changes.
func ExampleRun() {
	b := guest.NewBuilder()
	b.MovRI(guest.EAX, 0) // sum
	b.MovRI(guest.ECX, 1) // i
	b.Label("loop")
	b.AddRR(guest.EAX, guest.ECX)
	b.Inc(guest.ECX)
	b.CmpRI(guest.ECX, 101)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		fmt.Println(err)
		return
	}

	res, err := darco.Run(context.Background(), prog, darco.WithCosim(true))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("sum:", res.Final.Regs[guest.EAX])
	fmt.Println("halted with cycles:", res.Timing.Cycles > 0)
	// Output:
	// sum: 5050
	// halted with cycles: true
}

// ExampleSession runs a small batch concurrently through the
// controller's worker pool. The engine is fully deterministic, so the
// results are identical for any worker count, and identical jobs are
// memoized under a config-hash cache key.
func ExampleSession() {
	countdown := func(n int32) func() (*guest.Program, error) {
		return func() (*guest.Program, error) {
			b := guest.NewBuilder()
			b.MovRI(guest.EAX, n)
			b.Label("loop")
			b.Dec(guest.EAX)
			b.Jcc(guest.CondNE, "loop")
			b.Halt()
			return b.Build()
		}
	}
	sess := darco.NewSession(darco.WithWorkers(2))
	jobs := []darco.Job{
		darco.JobForProgram(workload.Func("count-40", countdown(40)), 1),
		darco.JobForProgram(workload.Func("count-60", countdown(60)), 1),
	}
	for _, br := range sess.RunBatch(context.Background(), jobs) {
		if br.Err != nil {
			fmt.Println(br.Err)
			return
		}
		fmt.Printf("%s: %d guest insts, eax=%d\n",
			br.Job.Name, br.Result.GuestDyn(), br.Result.Final.Regs[guest.EAX])
	}
	// Output:
	// count-40: 81 guest insts, eax=0
	// count-60: 121 guest insts, eax=0
}

// ExampleJob_config configures a run by editing the job's Config, here
// bounding the translation code cache so the working set no longer
// fits: TOL evicts translations under the configured policy and
// transparently retranslates them on re-entry, and the run reports the
// pressure in its statistics.
func ExampleJob_config() {
	loops := workload.Func("loops", func() (*guest.Program, error) {
		b := guest.NewBuilder()
		b.MovRI(guest.ESI, 3) // outer repetitions: evicted loops re-enter
		b.Label("outer")
		for k := int32(0); k < 12; k++ {
			lbl := fmt.Sprintf("loop%d", k)
			b.MovRI(guest.ECX, 30)
			b.MovRI(guest.EAX, k)
			b.Label(lbl)
			b.AddRI(guest.EAX, 3)
			b.XorRI(guest.EAX, 0x55)
			b.Dec(guest.ECX)
			b.Jcc(guest.CondNE, lbl)
		}
		b.Dec(guest.ESI)
		b.Jcc(guest.CondNE, "outer")
		b.Halt()
		return b.Build()
	})

	job := darco.JobForProgram(loops, 1)
	job.Config.TOL.Cache = tol.CacheConfig{CapacityInsts: 256, Policy: "lru-translation"}
	res, err := darco.NewSession().Run(context.Background(), job)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("evictions observed:", res.TOL.Evictions > 0)
	fmt.Println("retranslations observed:", res.TOL.Retranslations > 0)
	fmt.Println("peak within bound:", res.TOL.CacheOccupancyPeak <= 256)
	// Output:
	// evictions observed: true
	// retranslations observed: true
	// peak within bound: true
}
