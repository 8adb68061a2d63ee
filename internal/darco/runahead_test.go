package darco

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/sample"
	"repro/internal/timing"
	"repro/internal/tol"
)

// The stream producer of a detailed run goes on a goroutine of its own
// only when a core is free (timing.RunAhead), so these tests pick the
// mode through GOMAXPROCS: at 1 every run is synchronous, at 4 (with
// nothing else simulating) every run has its engine running ahead.

func atProcs(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// settleGoroutines waits for the goroutine count to return to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines after the run, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunAheadResultsIdentical: the Result JSON of a run is byte-identical
// whether its engine runs ahead of the simulator or not, for every
// timing mode, both guest ISAs, full and sampled. The 470.lbm plan is
// the case a probe that starts at zero gets wrong: the checkpoint of
// interval 8 restores with 80 173 guest instructions retired, past the
// interval's start of 80 000, so the synchronous run marks its warm-up
// at cycle 0, not at the first batch.
func TestRunAheadResultsIdentical(t *testing.T) {
	cases := []struct {
		ref   string
		scale float64
		plan  *sample.Config
	}{
		{"462.libquantum", 0.05, nil},
		{"rv32:429.mcf", 0.1, nil},
		{"470.lbm", 0.135, &sample.Config{Interval: 10_000, Every: 4, Warmup: 1_000}},
		{"rv32:429.mcf", 0.25, &sample.Config{Interval: 5_000, Every: 3, Warmup: 500}},
	}
	for _, tc := range cases {
		job, err := WithWorkload(tc.ref, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		p, err := job.Program.Build()
		if err != nil {
			t.Fatal(err)
		}
		for mode := timing.Mode(0); mode < timing.NumModes; mode++ {
			cfg := job.Config
			cfg.Mode, cfg.Sampling = mode, tc.plan
			run := func(procs int) []byte {
				var res *Result
				atProcs(procs, func() {
					res, err = cfg.runWith(context.Background(), p, runEnv{parallel: 1})
				})
				if err != nil {
					t.Fatalf("%s %v at GOMAXPROCS %d: %v", tc.ref, mode, procs, err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			if sync, ahead := run(1), run(4); !bytes.Equal(sync, ahead) {
				t.Errorf("%s %v sampled=%v: the result differs when the engine runs ahead", tc.ref, mode, tc.plan != nil)
			}
		}
	}
}

// TestRunAheadRunLifecycle: a detailed run that is cancelled, or that
// hits MaxCycles with its engine running ahead, fails as the
// synchronous run does and leaves no goroutine behind.
func TestRunAheadRunLifecycle(t *testing.T) {
	job := benchJob(t, "462.libquantum", 4) // past the first progress report
	p, err := job.Program.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"cancelled", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := job.Config.runWith(ctx, p, runEnv{progress: func(uint64, uint64) { cancel() }})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"max-cycles", func() error {
			cfg := job.Config
			cfg.MaxCycles = 300_000
			_, err := cfg.runWith(context.Background(), p, runEnv{})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errs [2]error
			for i, procs := range []int{1, 4} {
				base := runtime.NumGoroutine()
				atProcs(procs, func() { errs[i] = tc.run() })
				settleGoroutines(t, base)
			}
			if errString(errs[0]) != errString(errs[1]) {
				t.Errorf("running ahead: %v; synchronous: %v", errs[1], errs[0])
			}
			if tc.name == "max-cycles" && errs[0] == nil {
				t.Error("the run did not hit MaxCycles")
			}
		})
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// panicEviction is an eviction policy that panics: with a small code
// cache it makes the engine panic mid-stream, on whichever goroutine
// runs it.
type panicEviction struct{}

func (panicEviction) Name() string { return "test-panic" }
func (panicEviction) Victims(*tol.CodeCache, int) []*tol.Translation {
	panic("eviction exploded")
}

func init() {
	tol.RegisterEvictionPolicy("test-panic", func() tol.EvictionPolicy { return panicEviction{} })
}

// TestEnginePanicFailsJob: an engine that panics mid-stream fails its
// job with the panic, running ahead or not, and the session goes on
// to run the next job.
func TestEnginePanicFailsJob(t *testing.T) {
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			base := runtime.NumGoroutine()
			s := NewSession(WithWorkers(1))
			bad := benchJob(t, "462.libquantum", 0.2)
			bad.Config.TOL.Cache = tol.CacheConfig{CapacityInsts: 256, Policy: "test-panic"}
			const want = "462.libquantum: panic: eviction exploded"
			if _, err := s.Run(context.Background(), bad); err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS %d: err = %v, want %q", procs, err, want)
			}
			if _, err := s.Run(context.Background(), benchJob(t, "462.libquantum", 0.1)); err != nil {
				t.Fatalf("GOMAXPROCS %d: job after the panic: %v", procs, err)
			}
			settleGoroutines(t, base)
		})
	}
}
