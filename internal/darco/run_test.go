package darco

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/workload"
)

// longLoop builds a guest program whose simulation takes far longer
// than the cancellation tests are willing to wait.
func longLoop(iters int32) *guest.Program {
	b := guest.NewBuilder()
	b.Label("start")
	b.MovRI(guest.EAX, 0)
	b.MovRI(guest.ECX, iters)
	b.Label("loop")
	b.AddRR(guest.EAX, guest.ECX)
	b.XorRI(guest.EAX, 0x55)
	b.Dec(guest.ECX)
	b.CmpRI(guest.ECX, 0)
	b.Jcc(guest.CondNE, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, longLoop(1000), WithCosim(false))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCancelledMidSimulation cancels from the session's event
// stream on the second EventProgress — i.e. while the timing
// simulator's cycle loop is running — and requires Session.Run to
// return ctx.Err() promptly instead of simulating to MaxCycles.
func TestRunCancelledMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var reports int
	var cancelledAt uint64
	s := NewSession(WithWorkers(1), WithEvents(func(ev Event) {
		if ev.Kind != EventProgress {
			return
		}
		reports++
		if reports == 2 {
			cancelledAt = ev.Cycles
			cancel()
		}
	}))
	job := JobForProgram(workload.Func("long-loop", func() (*guest.Program, error) {
		return longLoop(100_000_000), nil
	}), 1)
	job.Config.TOL.Cosim = false
	job.Config.MaxCycles = 100_000_000_000
	if _, err := s.Run(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is polled every few thousand cycles, well under one
	// progress interval: "promptly" means the run never reached a third
	// report after the cancel at the second.
	if reports != 2 {
		t.Errorf("run continued past cancellation: %d progress reports (cancelled at cycle %d), want exactly 2",
			reports, cancelledAt)
	}
}

// TestSessionCancelErrorsNameTheJob: a job whose context ends while it
// waits for a worker slot, or on an identical in-flight run, fails with
// an error that names it and still matches the context's error, so a
// batch's failure summary says which run it was.
func TestSessionCancelErrorsNameTheJob(t *testing.T) {
	started := make(chan struct{}, 1)
	s := NewSession(WithWorkers(1), WithEvents(func(ev Event) {
		if ev.Kind == EventStarted {
			select {
			case started <- struct{}{}:
			default:
			}
		}
	}))
	long := func(name string) Job {
		job := JobForProgram(workload.Func(name, func() (*guest.Program, error) {
			return longLoop(100_000_000), nil
		}), 1)
		job.Config.TOL.Cosim = false
		job.Config.MaxCycles = 100_000_000_000
		return job
	}
	runCtx, stop := context.WithCancel(context.Background())
	defer stop()
	held := make(chan error, 1)
	go func() {
		_, err := s.Run(runCtx, long("holder"))
		held <- err
	}()
	<-started

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// "queued" waits for the one slot "holder" occupies; the second
	// "holder" waits on the first.
	for _, job := range []Job{long("queued"), long("holder")} {
		if _, err := s.Run(cancelled, job); !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), job.Name+": ") {
			t.Errorf("%s: err = %v, want context.Canceled prefixed with the job name", job.Name, err)
		}
	}
	stop()
	if err := <-held; !errors.Is(err, context.Canceled) {
		t.Errorf("holder: err = %v, want context.Canceled", err)
	}
}

// TestRunOptionsApply: Run folds its options onto DefaultConfig in
// order — WithConfig replaces the base, a later WithCosim edits it —
// and the folded configuration is what simulates.
func TestRunOptionsApply(t *testing.T) {
	p := longLoop(2_000)
	narrow := DefaultConfig()
	narrow.Timing.IssueWidth = 1
	res1, err := Run(context.Background(), p, WithConfig(narrow), WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), p, WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	if res1.TOL.CosimChecks != 0 {
		t.Errorf("WithCosim(false) after WithConfig did not apply: %d cosim checks", res1.TOL.CosimChecks)
	}
	if res1.Timing.Cycles <= res2.Timing.Cycles {
		t.Errorf("1-wide run (%d cycles) not slower than 2-wide (%d cycles)",
			res1.Timing.Cycles, res2.Timing.Cycles)
	}
	if res1.GuestDyn() != res2.GuestDyn() {
		t.Errorf("functional behaviour diverged across timing configs: %d vs %d",
			res1.GuestDyn(), res2.GuestDyn())
	}
}

// TestResultJSONRoundTrip marshals a full benchmark Result and
// requires the decoded struct to be deeply identical — the property
// that makes -json suite output lossless for cmd/darco-figs -from.
func TestResultJSONRoundTrip(t *testing.T) {
	spec, err := workload.ByName("462.libquantum")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Scale(0.2).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), p, WithCosim(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, &back) {
		t.Error("Result did not round-trip through JSON")
	}
	// The digest must agree before and after the trip.
	if !reflect.DeepEqual(res.Summary(), back.Summary()) {
		t.Error("Summary differs after JSON round-trip")
	}

	// Record round-trips too (the actual interchange unit).
	rec := Record{
		Benchmark: spec.Name,
		Suite:     spec.Suite.String(),
		Scale:     0.2,
		Mode:      timing.ModeShared.String(),
		Summary:   res.Summary(),
		Result:    res,
	}
	rb, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var recBack Record
	if err := json.Unmarshal(rb, &recBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, recBack) {
		t.Error("Record did not round-trip through JSON")
	}
}

// TestIsolatedModesPartitionShared: the app-only and tol-only runs of a
// workload each retire nothing of the other owner, and between them
// retire exactly the instructions of the shared run.
func TestIsolatedModesPartitionShared(t *testing.T) {
	for _, name := range []string{"462.libquantum", "429.mcf", "400.perlbench", "470.lbm", "103.novis_everything"} {
		job := benchJob(t, name, 0.2)
		p, err := job.Program.Build()
		if err != nil {
			t.Fatal(err)
		}
		run := func(mode timing.Mode) *timing.Result {
			cfg := job.Config
			cfg.Mode = mode
			res, err := cfg.runWith(context.Background(), p, runEnv{})
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			return res.Timing
		}
		shared, app, tol := run(timing.ModeShared), run(timing.ModeAppOnly), run(timing.ModeTOLOnly)
		if app.Insts[timing.OwnerTOL] != 0 || tol.Insts[timing.OwnerApp] != 0 {
			t.Errorf("%s: app-only retired %d tol insts, tol-only %d app insts, want 0",
				name, app.Insts[timing.OwnerTOL], tol.Insts[timing.OwnerApp])
		}
		if got, want := app.Insts[timing.OwnerApp]+tol.Insts[timing.OwnerTOL], shared.TotalInsts(); got != want {
			t.Errorf("%s: app-only plus tol-only retired %d insts, shared %d", name, got, want)
		}
	}
}
