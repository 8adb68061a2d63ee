package darco

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/tol"
	"repro/internal/workload"
)

// pressureLoop builds a guest program with `loops` distinct hot inner
// loops run `outer` times, whose translated footprint overflows a
// small bounded code cache on every outer iteration.
func pressureLoop(loops, iters, outer int32) func() (*guest.Program, error) {
	return func() (*guest.Program, error) {
		b := guest.NewBuilder()
		b.MovRI(guest.ESI, outer)
		b.MovRI(guest.EDI, 0)
		b.Label("outer")
		for k := int32(0); k < loops; k++ {
			lbl := fmt.Sprintf("loop%d", k)
			b.MovRI(guest.ECX, iters)
			b.MovRI(guest.EAX, k+1)
			b.Label(lbl)
			b.AddRI(guest.EAX, 3)
			b.XorRI(guest.EAX, int32(0x55+k))
			b.Shl(guest.EAX, 1)
			b.AddRR(guest.EDI, guest.EAX)
			b.Call("sub")
			b.Dec(guest.ECX)
			b.Jcc(guest.CondNE, lbl)
		}
		b.Dec(guest.ESI)
		b.Jcc(guest.CondNE, "outer")
		b.Halt()
		b.Label("sub")
		b.AddRI(guest.EDI, 7)
		b.Ret()
		return b.Build()
	}
}

// ccSweepJobs builds the cache-pressure sweep job list: the unbounded
// baseline plus every policy at every capacity.
func ccSweepJobs(build func() (*guest.Program, error)) []Job {
	jobs := []Job{{Name: "pressure", Variant: "cc=inf", Program: workload.Func("pressure", build), Config: DefaultConfig()}}
	for _, policy := range []string{"flush-all", "fifo-region", "lru-translation"} {
		for _, capacity := range []int{2048, 1024, 512} {
			job := Job{
				Name:    "pressure",
				Variant: fmt.Sprintf("cc=%d/%s", capacity, policy),
				Program: workload.Func("pressure", build),
				Config:  DefaultConfig(),
			}
			job.Config.TOL.Cache = tol.CacheConfig{CapacityInsts: capacity, Policy: policy}
			jobs = append(jobs, job)
		}
	}
	return jobs
}

// TestCacheSweepDeterministicAcrossWorkers is the -cc-size sweep
// determinism guarantee: running the whole capacity × policy matrix
// through a Session with one worker and with several must produce
// byte-identical results, eviction statistics included.
func TestCacheSweepDeterministicAcrossWorkers(t *testing.T) {
	build := pressureLoop(12, 30, 3)
	run := func(workers int) []string {
		sess := NewSession(WithWorkers(workers))
		batch := sess.RunBatch(context.Background(), ccSweepJobs(build))
		out := make([]string, len(batch))
		for i, br := range batch {
			if br.Err != nil {
				t.Fatalf("%s %s: %v", br.Job.Name, br.Job.Variant, br.Err)
			}
			blob, err := json.Marshal(br.Result)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(blob)
		}
		return out
	}
	sequential := run(1)
	concurrent := run(4)
	evicting := 0
	for i := range sequential {
		if sequential[i] != concurrent[i] {
			t.Fatalf("job %d differs between 1 and 4 workers", i)
		}
		var res Result
		if err := json.Unmarshal([]byte(sequential[i]), &res); err != nil {
			t.Fatal(err)
		}
		if res.TOL.Evictions > 0 {
			evicting++
		}
	}
	if evicting == 0 {
		t.Fatal("sweep exercised no evictions — shrink the capacities")
	}
}

// TestBoundedWithoutPressureIsCycleIdentical is the acceptance
// criterion at the controller level: a bound far above the working set
// (so no eviction fires) must reproduce the unbounded run exactly,
// cycles included.
func TestBoundedWithoutPressureIsCycleIdentical(t *testing.T) {
	prog, err := pressureLoop(6, 30, 2)()
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TOL.Cache = tol.CacheConfig{CapacityInsts: 1 << 20, Policy: "fifo-region"}
	bounded, err := cfg.runWith(context.Background(), prog, runEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.TOL.Evictions != 0 {
		t.Fatalf("unexpected evictions under a 1M-inst bound: %d", bounded.TOL.Evictions)
	}
	// The occupancy peak is the one intended difference: bounded runs
	// report it, unbounded runs (whose records must stay byte-identical
	// to pre-bounded ones) do not.
	if bounded.TOL.CacheOccupancyPeak == 0 {
		t.Fatal("bounded run should report its occupancy peak")
	}
	bounded.TOL.CacheOccupancyPeak = 0
	a, _ := json.Marshal(base)
	b, _ := json.Marshal(bounded)
	if string(a) != string(b) {
		t.Fatalf("bounded-but-unpressured run differs from unbounded:\n%s\nvs\n%s", a, b)
	}
}

// TestSessionNoPreloadBypassesPreload checks that sweep jobs which opt
// out of preloading really simulate instead of being served a
// preloaded result from a different configuration.
func TestSessionNoPreloadBypassesPreload(t *testing.T) {
	prog, err := pressureLoop(4, 20, 1)()
	if err != nil {
		t.Fatal(err)
	}
	genuine, err := Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(WithWorkers(1))
	// Poison the preload slot for this (name, mode): a job that honours
	// preloads would get the poisoned result back.
	poisoned := *genuine
	poisoned.Translations = -1
	sess.Preload("p", DefaultConfig().Mode, &poisoned)

	build := func() (*guest.Program, error) { return prog, nil }
	served, err := sess.Run(context.Background(), Job{Name: "p", Program: workload.Func("p", build), Config: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if served.Translations != -1 {
		t.Fatal("job without NoPreload should have been served the preloaded result")
	}
	fresh, err := sess.Run(context.Background(), Job{Name: "p", Variant: "v2", Program: workload.Func("p", build),
		Config: DefaultConfig(), NoPreload: true})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Translations == -1 {
		t.Fatal("NoPreload job was served the preloaded result")
	}
}
