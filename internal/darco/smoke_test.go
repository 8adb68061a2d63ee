package darco

import (
	"context"
	"testing"

	"repro/internal/timing"
	"repro/internal/workload"
)

func runBench(t *testing.T, name string) *Result {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmokeLibquantum(t *testing.T) {
	res := runBench(t, "462.libquantum")
	t.Logf("libquantum: guest=%d cycles=%d ipc=%.2f tol%%=%.1f ratio=%.0f sbm-dyn%%=%.1f sbs=%d",
		res.GuestDyn(), res.Timing.Cycles, res.Timing.IPC(),
		res.Timing.TOLShare()*100, res.DynamicStaticRatio(),
		100*float64(res.TOL.DynSBM)/float64(res.GuestDyn()), res.TOL.SBCreated)
	if res.GuestDyn() < 100_000 {
		t.Fatalf("dynamic size too small: %d", res.GuestDyn())
	}
	// High-ratio benchmark: SBM must dominate and TOL share must be low.
	if share := float64(res.TOL.DynSBM) / float64(res.GuestDyn()); share < 0.9 {
		t.Errorf("SBM dynamic share = %.2f, want > 0.9", share)
	}
	if res.Timing.TOLShare() > 0.15 {
		t.Errorf("TOL share = %.2f, want < 0.15 for libquantum-like", res.Timing.TOLShare())
	}
}

func TestSmokeRagdoll(t *testing.T) {
	res := runBench(t, "107.novis_ragdoll")
	t.Logf("ragdoll: guest=%d cycles=%d ipc=%.2f tol%%=%.1f ratio=%.0f im-dyn%%=%.1f",
		res.GuestDyn(), res.Timing.Cycles, res.Timing.IPC(),
		res.Timing.TOLShare()*100, res.DynamicStaticRatio(),
		100*float64(res.TOL.DynIM)/float64(res.GuestDyn()))
	// Low-ratio benchmark: substantial TOL share.
	if res.Timing.TOLShare() < 0.10 {
		t.Errorf("TOL share = %.2f, want >= 0.10 for ragdoll-like", res.Timing.TOLShare())
	}
}

func TestSmokePerlbench(t *testing.T) {
	res := runBench(t, "400.perlbench")
	indirPerK := 1000 * float64(res.TOL.IndirectDyn) / float64(res.GuestDyn())
	t.Logf("perlbench: guest=%d cycles=%d ipc=%.2f tol%%=%.1f indirect/K=%.1f lookups=%d",
		res.GuestDyn(), res.Timing.Cycles, res.Timing.IPC(),
		res.Timing.TOLShare()*100, indirPerK, res.TOL.Lookups)
	if indirPerK < 3 {
		t.Errorf("indirect density = %.1f per K, want >= 3", indirPerK)
	}
}

func TestSmokeInteraction(t *testing.T) {
	if testing.Short() {
		t.Skip("interaction experiment needs a steady-state-sized run")
	}
	spec, err := workload.ByName("400.perlbench")
	if err != nil {
		t.Fatal(err)
	}
	// Interaction penalties are a steady-state effect: at small scales
	// the one-time warming the interpreter performs for the application
	// outweighs the recurring pollution (see EXPERIMENTS.md).
	spec = spec.Scale(4)
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Timing-only experiment; the functional path is tested elsewhere.
	run := func(mode timing.Mode) *Result {
		cfg := DefaultConfig()
		cfg.TOL.Cosim = false
		cfg.Mode = mode
		res, err := cfg.runWith(context.Background(), p, runEnv{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ir := InteractionResult{Shared: run(timing.ModeShared), Split: run(timing.ModeSplit)}
	t.Logf("interaction perlbench: app slowdown=%.3f tol slowdown=%.3f",
		ir.AppSlowdown(), ir.TOLSlowdown())
	// The indirect-branch heavy outlier must show a clear TOL-side
	// penalty (the paper reports the largest interaction effects for
	// perlbench), and the app side must be near-neutral or worse.
	if ir.TOLSlowdown() < 1.02 {
		t.Errorf("perlbench-like TOL interaction penalty too small: %.3f", ir.TOLSlowdown())
	}
	if ir.AppSlowdown() < 0.98 {
		t.Errorf("app slowdown implausibly low: %.3f", ir.AppSlowdown())
	}
	// The two runs see the same guest execution and dynamic streams.
	if ir.Shared.GuestDyn() != ir.Split.GuestDyn() {
		t.Error("interaction runs diverged in guest instruction counts")
	}
	if ir.Shared.Timing.TotalInsts() != ir.Split.Timing.TotalInsts() {
		t.Error("interaction runs diverged in host instruction counts")
	}
}
