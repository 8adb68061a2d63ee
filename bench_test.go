// Steady-state tripwires: the two hot paths of the engine, warmed,
// streaming batches with zero allocations. Everything else that used
// to be benchmarked here is measured by the repository benchmark
// (go run ./bench; see bench/README.md), which is the perf ledger.
package repro

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/timing"
	"repro/internal/tol"
)

func buildHotLoop(iters int32) *guest.Program {
	bld := guest.NewBuilder()
	bld.Label("start")
	bld.MovRI(guest.EAX, 0)
	bld.MovRI(guest.ECX, iters)
	bld.Label("loop")
	bld.AddRR(guest.EAX, guest.ECX)
	bld.XorRI(guest.EAX, 0x55)
	bld.Dec(guest.ECX)
	bld.CmpRI(guest.ECX, 0)
	bld.Jcc(guest.CondNE, "loop")
	bld.Halt()
	return bld.MustBuild()
}

// BenchmarkSteadyStateTranslated measures the translated-execution
// hot path alone: a warmed engine (translations built, chains patched,
// arenas grown) streaming batches. The b.ReportMetric allocs/step
// figure must stay at zero — the alloc-regression tests enforce it,
// this benchmark tracks the cycle cost.
func BenchmarkSteadyStateTranslated(b *testing.B) {
	cfg := tol.DefaultConfig()
	cfg.Cosim = false
	eng := tol.NewEngine(cfg, buildHotLoop(2_000_000_000))
	buf := make([]timing.DynInst, 1024)
	for warmed := 0; warmed < 200_000; {
		n := eng.NextBatch(buf)
		if n == 0 {
			b.Fatal(eng.Err())
		}
		warmed += n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for got := 0; got < 10_000; {
			n := eng.NextBatch(buf)
			if n == 0 {
				b.Fatal(eng.Err())
			}
			got += n
		}
	}
	b.ReportMetric(10_000, "insts/op")
}

// BenchmarkSteadyStateInterp measures the interpreter hot path alone
// (translation disabled via an unreachable threshold): decode-cache
// hits, cost-stream emission, profile bumps.
func BenchmarkSteadyStateInterp(b *testing.B) {
	cfg := tol.DefaultConfig()
	cfg.Cosim = false
	cfg.BBThreshold = 1 << 30
	eng := tol.NewEngine(cfg, buildHotLoop(2_000_000_000))
	buf := make([]timing.DynInst, 1024)
	for warmed := 0; warmed < 100_000; {
		n := eng.NextBatch(buf)
		if n == 0 {
			b.Fatal(eng.Err())
		}
		warmed += n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for got := 0; got < 10_000; {
			n := eng.NextBatch(buf)
			if n == 0 {
				b.Fatal(eng.Err())
			}
			got += n
		}
	}
	b.ReportMetric(10_000, "insts/op")
}
